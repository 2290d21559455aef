#ifndef CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
#define CYCLESTREAM_CORE_ARB_F2_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.h"
#include "stream/driver.h"

namespace cyclestream {

/// The §5.3 algorithm (Theorem 5.7): one pass over an *arbitrary order* edge
/// stream, Õ(ε⁻²·n) space, (1+ε)-approximation of the 4-cycle count when
/// T = Ω(n²/ε²). Also correct in the dynamic (insert/delete) setting.
///
/// Same F₂-of-the-wedge-vector reduction as §4.2, but because lists are not
/// grouped, each basic estimator maintains the three per-vertex accumulators
/// A_t, B_t, C_t for *every* vertex (3n counters): when edge (u,v) arrives,
/// A_u += α_v, B_u += β_v, C_u += α_v·β_v and symmetrically for v (deletions
/// subtract). At the end, Z = Σ_t (A_t·B_t − C_t)/2 and E[Z²] = F₂(x).
///
/// In the theorem's regime the capped-F₁ term of Lemma 4.4 satisfies
/// F₁(z) ≤ n²/ε ≤ O(ε)·T, so the estimate T̂ = F̂₂/4 is already (1+O(ε));
/// the implementation therefore omits the F₁ correction (callers may
/// subtract a known F₁ via `f1_correction` for out-of-regime studies).
///
/// Memory layout: one row per vertex holding all three accumulators of all
/// C copies, acc[v·3C + {0, C, 2C} + c] = {A_v, B_v, C_v} of copy c, so an
/// edge touches two contiguous 3C-slot rows. The ±1 sign caches stay
/// copy-minor (alpha[v·C + c]). Every slot is an exact integer (a sum of ±1
/// and ±1·±1 terms), so slots are int32 while a bound on their magnitude
/// (the largest restored or merged slot plus the updates applied since)
/// stays below 2^31. They switch to `double` — the representation that
/// holds any state — on the first Rescale, when that bound would reach
/// 2^31, and when a restored snapshot holds a non-integral slot. The
/// estimate and the snapshot bytes depend only on the slot values, which
/// are the same in either representation (DESIGN.md §8).
class ArbF2FourCycleCounter : public EdgeStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    int copies_per_group = -1;  // <= 0 derives ⌈2/ε²⌉ capped at 512.
    int groups = 9;
    double f1_correction = 0.0;  // Optional known F₁(z) to subtract.
  };

  explicit ArbF2FourCycleCounter(const Params& params);

  /// Dynamic interface.
  void Insert(const Edge& e) { Apply(e, +1.0); }
  void Delete(const Edge& e) { Apply(e, -1.0); }

  // EdgeStreamAlgorithm (insert-only adapter):
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessEdge(int pass, const Edge& e, std::size_t position) override;
  /// Batched delivery: the same updates, in the same order, as ProcessEdge
  /// per edge.
  void ProcessEdgeBlock(int pass, std::span<const Edge> edges,
                        std::size_t base_position) override;
  /// Signed batched delivery (the turnstile path): edges[i] enters with
  /// weight signs[i] ∈ {+1, −1}: the same updates as Insert/Delete per
  /// edge.
  void ProcessSignedEdgeBlock(std::span<const Edge> edges,
                              std::span<const double> signs);
  /// Multiplies every accumulator by `factor` — the exponential-decay hook.
  /// Switches the slots to `double` first; with an exact power-of-two
  /// factor the multiply is a pure exponent shift, lossless on every slot.
  void Rescale(double factor);
  void EndPass(int pass) override;
  std::string_view CheckpointId() const override { return "arbf2/1"; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  /// Shard-merge: adds `other`'s accumulators into this counter's. The
  /// state is linear in the stream (every edge contributes fixed ±1 /
  /// ±1·±1 deltas), so merging shard-local counters over a partitioned
  /// stream reproduces the whole-stream counters exactly — every slot is
  /// an exact integer, making the addition exact and associative (int32
  /// adds while both sides' bounds sum below 2^31, `double` otherwise).
  /// False (no mutation) unless `other` is an ArbF2FourCycleCounter with
  /// identical result-affecting configuration.
  bool MergeFrom(const EdgeStreamAlgorithm& other) override;

  /// Computes the estimate from the current counters (may be called at any
  /// time in the dynamic setting).
  Estimate Result() const;

  double F2Estimate() const;

  /// True once the slots are held as `double` (see the layout note above).
  bool double_slots() const { return double_slots_; }

 private:
  /// Calls f with the live rows: int_rows_ or dbl_rows_.
  template <typename Self, typename F>
  static decltype(auto) VisitSlots(Self& self, F&& f) {
    return self.double_slots_ ? f(self.dbl_rows_) : f(self.int_rows_);
  }

  void Apply(const Edge& e, double sign) {
    ApplyBlock(std::span<const Edge>(&e, 1), &sign);
  }
  /// Applies edges[i] with weight signs[i] (+1 for all when signs is null).
  void ApplyBlock(std::span<const Edge> edges, const double* signs);

  /// Accounts for `updates` more ±1 updates, switching to `double` slots
  /// first if they could carry an int32 slot past 2^31 − 1.
  void ReserveUpdates(std::size_t updates);
  void SwitchToDoubleSlots();

  Params params_;
  std::size_t num_copies_ = 0;
  // ±1 sign caches, copy-minor: alpha_[v·C + c] for vertex v, copy c.
  // Filled at construction over the whole vertex universe, which is known
  // up front, by KWiseHashBank::SignTable's forward-difference walk.
  std::vector<signed char> alpha_;
  std::vector<signed char> beta_;
  // The accumulator rows; int_rows_ is live until double_slots_, then
  // dbl_rows_.
  std::vector<std::int32_t> int_rows_;
  std::vector<double> dbl_rows_;
  bool double_slots_ = false;
  // Upper bound on |slot| while the slots are int32; kept at or below
  // 2^31 − 1.
  std::uint64_t slot_bound_ = 0;
  mutable std::vector<double> square_scratch_;
};

/// Convenience wrapper over an insert-only stream.
Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2FourCycleCounter::Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
