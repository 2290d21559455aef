#ifndef CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_
#define CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "stream/driver.h"
#include "stream/space.h"

namespace cyclestream {

/// The §4.2 algorithm (Theorem 4.3a): one pass over an adjacency-list
/// stream, Õ(ε⁻⁴·n⁴/T²) space, (1+ε)-approximation of the 4-cycle count —
/// polylog space once T = Ω(n²/ε²).
///
/// Reduction: with x the wedge vector (x_{uv} = |Γ(u)∩Γ(v)|) and
/// z_{uv} = min(x_{uv}, 1/ε),
///     F₂(x) = F₁(z) + 4T ± 4εT          (Lemma 4.4)
/// so  T̂ = (F̂₂(x) − F̂₁(z)) / 4.
///
/// F₂(x) is estimated by the paper's specialized AMS estimator, computable
/// with four counters per basic copy in the adjacency model: while list t
/// streams, accumulate A_t = Σ α_u, B_t = Σ β_u, C_t = Σ α_u β_u over
/// u ∈ Γ(t) (α, β 4-wise independent signs); at the end of the list add
/// (A_t·B_t − C_t)/2 to the copy's running Z. Then E[Z²] = F₂(x), and
/// median-of-means over copies gives the (1+γ) guarantee with
/// γ = ε·min(1, εT/n²).
///
/// F₁(z) is estimated by sampling vertex pairs at rate p ∝ ε⁻⁴n²/T²·log n
/// (at most 4M pairs) and counting each sampled pair's common neighbors
/// (capped at 1/ε) with O(1) state per pair.
///
/// Memory layout (DESIGN.md §8): the α and β signs are bit rows, one per
/// vertex — neg_bits_[v·2W + w] holds α's negative-sign flags of copies
/// 64w..64w+63 and neg_bits_[v·2W + W + w] β's, with W = ⌈C/64⌉ — so a
/// neighbour costs one 2W-word row. Per list, A_t, B_t and C_t come from
/// the counts nα, nβ and n⊕ of −1 signs among the neighbours (C_t from
/// α⊕β): A_t = d − 2nα, and so on. The counts are kept bit-sliced, one
/// plane per binary digit, and are fed 16 neighbours at a time through a
/// Harley–Seal carry-save adder tree, then unpacked to int32 per copy at
/// the end of the list. Bit-identical to the old per-copy `double`
/// accumulators: those held the same exact integers, and Z still adds
/// (A_t·B_t − C_t)/2 in list order. The pair sample is structure-of-arrays
/// in draw order, indexed by a CSR over the vertices.
class AdjF2FourCycleCounter : public AdjacencyStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    /// Basic estimators per median group; <= 0 derives ⌈2/γ²⌉ (capped at
    /// 4096) from the config.
    int copies_per_group = -1;
    /// Median groups.
    int groups = 9;
    /// Pair-sampling rate override for the F₁(z) part; <= 0 derives the
    /// paper's rate (clamped to 1).
    double pair_rate = -1.0;
  };

  explicit AdjF2FourCycleCounter(const Params& params);

  // AdjacencyStreamAlgorithm:
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t num_lists) override;
  void ProcessList(int pass, const AdjacencyList& list,
                   std::size_t position) override;
  void EndPass(int pass) override;
  std::size_t AuditSpace() const override;
  const SpaceTracker* space_tracker() const override { return &space_; }
  std::string_view CheckpointId() const override { return "adjf2/1"; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;

  Estimate Result() const { return result_; }

  /// Component estimates (diagnostics).
  double F2Estimate() const { return f2_estimate_; }
  double F1Estimate() const { return f1_estimate_; }

 private:
  void UpdateSpace();

  Params params_;
  std::uint32_t z_cap_ = 1;
  double pair_rate_ = 1.0;

  std::size_t num_copies_ = 0;
  std::size_t words_ = 0;  // W = ⌈C/64⌉.
  // Negative-sign bit rows, neg_bits_[v·2W + {0, W} + w] for α and β,
  // filled at construction over the whole vertex universe by
  // KWiseHashBank::SignBits.
  std::vector<std::uint64_t> neg_bits_;
  std::vector<std::uint64_t> zero_row_;  // Pads a list's last 16-block.
  // Bit-sliced per-list counts: planes_[p·3W + lane] is binary digit p of
  // the lanes nα (0..W), nβ (W..2W) and n⊕ (2W..3W).
  std::vector<std::uint64_t> planes_;
  std::vector<std::int32_t> counts_;  // nα | nβ | n⊕ per copy, 64W each.
  std::vector<double> z_;      // Running Σ_t (A_t·B_t − C_t)/2 per copy.
  mutable std::vector<double> square_scratch_;

  // F₁(z) pair sample, structure of arrays in draw order: endpoints u < v,
  // z = min(common neighbors so far, cap), and the last list position
  // that counted the pair.
  std::vector<VertexId> pair_u_;
  std::vector<VertexId> pair_v_;
  std::vector<std::uint32_t> pair_z_;
  std::vector<std::uint64_t> counted_;
  // The list position where each vertex was last seen as a neighbour: the
  // per-pair endpoint stamps of the adjf2/1 snapshot, stored once per
  // vertex because every pair of a vertex carries the same value.
  std::vector<std::uint64_t> last_seen_;
  // Pairs by smaller endpoint (CSR): u's pairs, in draw order, are
  // k ∈ [pair_offset_[u], pair_offset_[u + 1]), with the other endpoint
  // pair_other_[k] and the sample index pair_index_[k].
  std::vector<std::uint32_t> pair_offset_;
  std::vector<VertexId> pair_other_;
  std::vector<std::uint32_t> pair_index_;

  double f2_estimate_ = 0.0;
  double f1_estimate_ = 0.0;
  SpaceTracker space_;
  Estimate result_;
};

/// Convenience wrapper.
Estimate CountFourCyclesAdjF2(const AdjacencyStream& stream,
                              const AdjF2FourCycleCounter::Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ADJ_F2_COUNTER_H_
