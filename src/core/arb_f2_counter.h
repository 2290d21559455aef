#ifndef CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
#define CYCLESTREAM_CORE_ARB_F2_COUNTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "core/config.h"
#include "stream/driver.h"

namespace cyclestream {

/// The §5.3 algorithm (Theorem 5.7): one pass over an *arbitrary order* edge
/// stream, Õ(ε⁻²·n) space, (1+ε)-approximation of the 4-cycle count when
/// T = Ω(n²/ε²). Also correct in the dynamic (insert/delete) setting.
///
/// Same F₂-of-the-wedge-vector reduction as §4.2, but because lists are not
/// grouped, each basic estimator maintains the paper's three per-vertex
/// accumulators A_t, B_t, C_t for *every* vertex (3n counters): when edge
/// (u,v) arrives, A_u += α_v, B_u += β_v, C_u += α_v·β_v and symmetrically
/// for v (deletions subtract). At the end, Z = Σ_t (A_t·B_t − C_t)/2 and
/// E[Z²] = F₂(x).
///
/// The counter keeps A_t and B_t per copy but no C_t: it keeps instead one
/// D_t per vertex, shared by all copies, t's signed degree (each update
/// adds its sign at both endpoints, twice at a self-loop; decay scales it
/// with the rest). Regrouping Σ_t C_t by the endpoint each α·β term comes
/// from gives, per copy, Σ_t C_t = Σ_t D_t·α_t·β_t, so Z = Σ_t (A_t·B_t −
/// D_t·α_t·β_t)/2 is the same estimator at 2n + 1 counters per copy
/// instead of 3n. Where every partial sum is an exact `double` (integer
/// values below 2^53, as in every pinned estimate), Z is bit-identical to
/// the C form; elsewhere only its rounding differs (DESIGN.md §8).
///
/// In the theorem's regime the capped-F₁ term of Lemma 4.4 satisfies
/// F₁(z) ≤ n²/ε ≤ O(ε)·T, so the estimate T̂ = F̂₂/4 is already (1+O(ε));
/// the implementation therefore omits the F₁ correction (callers may
/// subtract a known F₁ via `f1_correction` for out-of-regime studies).
///
/// Memory layout: one row of 2C + 1 slots per vertex holding both
/// accumulators of all C copies and the vertex's D, acc[v·(2C+1) + {0, C}
/// + c] = {A_v, B_v} of copy c and acc[v·(2C+1) + 2C] = D_v, so an edge
/// touches two contiguous rows. The ±1 sign caches stay copy-minor bytes
/// (alpha[v·C + c]) and can be shared read-only between counters of one
/// configuration (`Signs`).
///
/// Slot width: an integer slot holds its value·2^e, where e (`exponent_`)
/// starts at zero and grows by k with each Rescale(2^−k); a Rescale
/// touches no slot. Every update adds ±2^e to each slot of its rows, so
/// |slot| is at most 2^e summed over the updates touching that row. The
/// counter keeps that bound per row (one uint32 per vertex) and stores all
/// slots at the narrowest width every row's bound fits: int16, then int32,
/// then `double`, the representation that holds any state. A row's bound
/// grows by 2^e per edge endpoint before the slots are touched (two steps
/// for a self-loop), adds the other side's on a merge and is the row's
/// largest |slot| after a restore; the slots widen as soon as one bound
/// would pass the width's maximum. They go to `double` when a bound would
/// pass 2^31 − 1, when e would pass 30, on any other Rescale factor, on a
/// merge where either side has e > 0, and when a restored slot is
/// non-integral or −0.0; a `double` slot holds the value itself (e is
/// folded in once and reset to zero) and the bounds are dropped. While
/// integer, every value has at most 31 significant bits, so `double`
/// slots updated and rescaled the same way would hold the same values
/// exactly. The estimate and the snapshot bytes depend only on the values,
/// which are the same at every width and every e (DESIGN.md §8).
///
/// Snapshot layout `arbf2/3`: the six config fields (u32 n, u64 C, i64
/// groups, f64 ε, u64 seed, f64 F₁ correction), a u8 width tag (0 = int16,
/// 1 = int32, 2 = `double`), a u64 slot count n·(2C+1) (`SlotCount`),
/// then the slots in the row-major order above, little-endian at the
/// tagged width. SaveState writes the values at the narrowest width that
/// holds each exactly (int16 when every |value| ≤ 32,767, int32 when every
/// value is an int32 other than −0.0, else `double`), whatever width and
/// exponent the counter holds, converting row by row without a full-size
/// copy, and RestoreState (which resets the exponent to zero) refuses any
/// other encoding: an unknown tag, a wrong count, a short payload, an
/// int16 slot of −32,768, an int32 slot of INT32_MIN, a non-finite
/// `double`, or a blob wider than it needs to be.
class ArbF2FourCycleCounter : public EdgeStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    int copies_per_group = -1;  // <= 0 derives ⌈2/ε²⌉ capped at 512.
    int groups = 9;
    double f1_correction = 0.0;  // Optional known F₁(z) to subtract.
  };

  /// The ±1 sign caches of one configuration, copy-minor:
  /// alpha[v·C + c] for vertex v, copy c. They depend only on the seed and
  /// the dimensions, so every counter of one query (window buckets, their
  /// fold) can share one immutable instance.
  struct Signs {
    std::vector<signed char> alpha;
    std::vector<signed char> beta;
  };
  /// Builds the sign caches a counter with `params` draws, over the whole
  /// vertex universe, by KWiseHashBank::SignTable's forward-difference
  /// walk.
  static std::shared_ptr<const Signs> MakeSigns(const Params& params);

  /// `signs`, when given, must come from MakeSigns with the same seed,
  /// vertex count and copy counts; null builds them.
  explicit ArbF2FourCycleCounter(const Params& params,
                                 std::shared_ptr<const Signs> signs = nullptr);

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
  /// On integer slots a factor 2^−k (k >= 0) only raises the exponent by k,
  /// while it stays at most 30; any other factor, or one past that cap,
  /// moves the slots to `double` values and multiplies each.
  void Rescale(double factor);
  void EndPass(int pass) override;
  /// The snapshot's id; it moves with the layout above.
  static constexpr std::string_view kCheckpointId = "arbf2/3";
  std::string_view CheckpointId() const override { return kCheckpointId; }
  /// Slots in one vertex's row (A and B of each of `copies` copies, then
  /// D) and in a whole state of `n` rows, the snapshot's slot count.
  static constexpr std::size_t RowSlots(std::size_t copies) {
    return 2 * copies + 1;
  }
  static constexpr std::size_t SlotCount(std::size_t n, std::size_t copies) {
    return n * RowSlots(copies);
  }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  /// Shard-merge: adds `other`'s accumulators into this counter's. The
  /// state is linear in the stream (every edge contributes fixed ±1
  /// deltas), so merging shard-local counters over a partitioned
  /// stream reproduces the whole-stream counters exactly — every slot is
  /// an exact integer, making the addition exact and associative (integer
  /// adds at the width the row-by-row sums of both sides' bounds fit,
  /// `double` past int32 or when either side carries a rescale exponent).
  /// False (no mutation) unless `other` is an ArbF2FourCycleCounter with
  /// identical result-affecting configuration.
  bool MergeFrom(const EdgeStreamAlgorithm& other) override;

  /// Computes the estimate from the current counters (may be called at any
  /// time in the dynamic setting).
  Estimate Result() const;

  double F2Estimate() const;

  /// The width the slots are held at (see the layout note above), in the
  /// order they widen.
  enum class SlotWidth { kInt16, kInt32, kDouble };
  SlotWidth slot_width() const {
    return static_cast<SlotWidth>(rows_.index());
  }
  /// True once the slots are held as `double`.
  bool double_slots() const { return slot_width() == SlotWidth::kDouble; }

 private:
  // Alternatives in SlotWidth order.
  using Rows = std::variant<std::vector<std::int16_t>,
                            std::vector<std::int32_t>, std::vector<double>>;

  void Apply(const Edge& e, double sign) {
    ApplyBlock(std::span<const Edge>(&e, 1), &sign);
  }
  /// Applies edges[i] with weight signs[i] (+1 for all when signs is null).
  void ApplyBlock(std::span<const Edge> edges, const double* signs);

  /// The narrowest width that holds every slot exactly: the width the
  /// snapshot is written at.
  SlotWidth NarrowestWidth() const;

  /// Widens the slots, exactly, to the narrowest width that holds every
  /// |slot| <= `bound`; they never narrow.
  void WidenFor(std::uint64_t bound);

  Params params_;
  std::size_t num_copies_ = 0;
  std::shared_ptr<const Signs> signs_;
  Rows rows_;
  // row_bound_[v] >= |slot| over row v's 2C + 1 slots, always at most
  // 2^31 − 1; empty once the slots are `double`.
  std::vector<std::uint32_t> row_bound_;
  // An integer slot holds value·2^exponent_, 0 <= exponent_ <= 30; always
  // zero on `double` slots.
  int exponent_ = 0;
  mutable std::vector<double> square_scratch_;
};

/// Convenience wrapper over an insert-only stream.
Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2FourCycleCounter::Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ARB_F2_COUNTER_H_
