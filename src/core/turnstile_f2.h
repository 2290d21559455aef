#ifndef CYCLESTREAM_CORE_TURNSTILE_F2_H_
#define CYCLESTREAM_CORE_TURNSTILE_F2_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/arb_f2_counter.h"
#include "core/config.h"
#include "stream/dynamic/turnstile.h"

namespace cyclestream {

/// Dynamic-model estimators (query kinds `turnstile-f2-c4` and
/// `turnstile-f2-triangle`). Both are linear sketches of the signed edge
/// indicator vector x (x_e = inserts − deletes of e), which is the whole
/// point of the turnstile subsystem: a deletion is the insertion applied
/// with sign −1, so cancellation, shard merges, checkpoints, window-bucket
/// folds, and decay rescaling all compose exactly. See DESIGN.md §15.

/// Four-cycle counting in the turnstile model: the paper's Thm 5.7
/// estimator verbatim — ArbF2FourCycleCounter is already "correct in the
/// dynamic setting" (its header), this wrapper is the op-aware stream
/// adapter. On an insert-only turnstile stream the inner state, and hence
/// the estimate, is bit-identical to the arb-f2 query kind with the same
/// Params (same seed chain, same accumulator layout, same update order).
class TurnstileF2FourCycleCounter : public TurnstileStreamAlgorithm {
 public:
  using Params = ArbF2FourCycleCounter::Params;

  /// `signs` as in ArbF2FourCycleCounter: shared caches from MakeSigns,
  /// or null to build them.
  explicit TurnstileF2FourCycleCounter(
      const Params& params,
      std::shared_ptr<const ArbF2FourCycleCounter::Signs> signs = nullptr)
      : inner_(params, std::move(signs)) {}

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  /// Batched delivery: splits the block into an edge span plus a ±1 sign
  /// span and feeds the counter's signed block path.
  void ProcessUpdateBlock(int pass, std::span<const TurnstileUpdate> updates,
                          std::size_t base_position) override;
  void EndPass(int pass) override;
  Estimate Result() const override { return inner_.Result(); }
  bool Rescale(double factor) override;
  /// The blob is the inner counter's, so the id moves with its layout.
  static constexpr std::string_view kCheckpointId = "turnstile-c4/2";
  std::string_view CheckpointId() const override { return kCheckpointId; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  bool MergeFrom(const TurnstileStreamAlgorithm& other) override;

  const ArbF2FourCycleCounter& inner() const { return inner_; }

 private:
  ArbF2FourCycleCounter inner_;
  // Block-conversion scratch (derived working memory, never serialized).
  std::vector<Edge> edge_scratch_;
  std::vector<double> sign_scratch_;
};

/// Triangle counting in the turnstile model via the cubic sign sketch:
/// each copy keeps the single counter Z_c = Σ_e x_e·σ_c(u)·σ_c(v) with
/// 6-wise independent ±1 vertex signs σ_c. For an ordered triple of
/// distinct stream edges the sign product survives expectation only when
/// the three edges close a triangle (each vertex appears exactly twice,
/// σ² = 1), and each triangle is hit by 3! orderings, so E[Z³] = 6T —
/// 6-wise independence is exactly enough for the third moment. The
/// estimate is MedianOfMeans over the per-copy basics Z_c³/6. Space is
/// O(1) counters per copy (plus the per-vertex sign cache), the state is
/// linear in x, and deletions are sign −1 updates — the triangle-side
/// counterpart the insert-only algorithms (A–D) cannot offer.
class TurnstileF2TriangleCounter : public TurnstileStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    int copies_per_group = -1;  // <= 0 derives ⌈2/ε²⌉ capped at 512.
    int groups = 9;
  };

  /// The 6-wise ±1 sign cache of one configuration, copy-minor:
  /// sigma[v·C + c] for vertex v, copy c. It depends only on the seed and
  /// the dimensions, so every counter of one query (window buckets, their
  /// fold) can share one immutable instance.
  using Signs = std::vector<signed char>;
  /// Builds the cache a counter with `params` draws, by
  /// KWiseHashBank::SignTable.
  static std::shared_ptr<const Signs> MakeSigns(const Params& params);

  /// `sigma`, when given, must come from MakeSigns with the same seed,
  /// vertex count and copy counts; null builds it.
  explicit TurnstileF2TriangleCounter(
      const Params& params, std::shared_ptr<const Signs> sigma = nullptr);

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  void EndPass(int pass) override;
  Estimate Result() const override;
  bool Rescale(double factor) override;
  static constexpr std::string_view kCheckpointId = "turnstile-tri/1";
  std::string_view CheckpointId() const override { return kCheckpointId; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;
  bool MergeFrom(const TurnstileStreamAlgorithm& other) override;

 private:
  void Apply(const Edge& e, double sign);

  Params params_;
  std::size_t num_copies_ = 0;
  std::shared_ptr<const Signs> sigma_;
  // Per-copy counters Z_c (exact integers while |Z| < 2^53).
  std::vector<double> z_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_TURNSTILE_F2_H_
