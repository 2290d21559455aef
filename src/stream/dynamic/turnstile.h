#ifndef CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_H_
#define CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "stream/driver.h"
#include "stream/order.h"
#include "stream/space.h"

namespace cyclestream {

class StateWriter;
class StateReader;

/// The dynamic (turnstile) stream model: edges arrive *and depart*. The
/// paper's Thm 5.7 estimator (arb-f2) works here unchanged because its
/// state is a linear sketch — a deletion is the insertion with sign −1 —
/// and the same holds for every estimator registered under the turnstile
/// query kinds. See DESIGN.md §15.

/// Per-record operation. The numeric values are the wire encoding of the
/// binary turnstile format (turnstile_io.h); keep them stable.
enum class TurnstileOp : std::uint8_t { kInsert = 0, kDelete = 1 };

/// ±1.0 update sign: every accumulator delta is sign · (±1 term), an exact
/// small integer, which is what makes cancellation, sharding, and merges
/// bit-exact.
inline double TurnstileSign(TurnstileOp op) {
  return op == TurnstileOp::kInsert ? +1.0 : -1.0;
}

/// One turnstile stream element: an edge plus its operation.
struct TurnstileUpdate {
  Edge edge;
  TurnstileOp op = TurnstileOp::kInsert;

  TurnstileUpdate() = default;
  TurnstileUpdate(const Edge& e, TurnstileOp o) : edge(e), op(o) {}

  friend bool operator==(const TurnstileUpdate& a,
                         const TurnstileUpdate& b) = default;
};

/// A materialized single-pass turnstile stream.
using TurnstileStream = std::vector<TurnstileUpdate>;

/// Interface for algorithms over turnstile streams. Deliberately mirrors
/// EdgeStreamAlgorithm method-for-method (NumPasses/StartPass/Process*/
/// EndPass plus the checkpoint and merge hooks) so the one pass loop
/// (RunPasses, which serves both the standalone driver and every query a
/// broker thread runs) hosts all three stream families through one
/// template.
/// Turnstile algorithms are single-pass by construction: their state is a
/// linear sketch of the signed stream, so one pass is all the model ever
/// needs (and a deletion-bearing stream has no meaningful "replay for
/// pass 2" semantics for sampling algorithms).
class TurnstileStreamAlgorithm {
 public:
  virtual ~TurnstileStreamAlgorithm() = default;

  int NumPasses() const { return 1; }
  virtual void StartPass(int pass, std::size_t stream_length) = 0;
  virtual void ProcessUpdate(int pass, const TurnstileUpdate& u,
                             std::size_t position) = 0;
  virtual void EndPass(int pass) = 0;

  /// Batched delivery: updates[i] is the stream element at position
  /// base_position + i. Same contract as EdgeStreamAlgorithm — an override
  /// must leave the algorithm in exactly the state the per-update loop
  /// would (block/scalar bit-identity, DESIGN.md §13).
  virtual void ProcessUpdateBlock(int pass,
                                  std::span<const TurnstileUpdate> updates,
                                  std::size_t base_position) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      ProcessUpdate(pass, updates[i], base_position + i);
    }
  }

  /// The estimate from the current counters. Turnstile estimators are
  /// linear, so this is meaningful at any point in the stream (the
  /// windowing layer queries it between epochs).
  virtual Estimate Result() const = 0;

  /// Multiplies every state counter by `factor` — the exponential-decay
  /// hook. Exact power-of-two factors keep the rescale lossless in IEEE
  /// doubles (a pure exponent shift), which is what makes decayed runs
  /// thread- and block-size-invariant. Returns false (no mutation) if the
  /// algorithm does not support rescaling.
  virtual bool Rescale(double factor) {
    (void)factor;
    return false;
  }

  /// See EdgeStreamAlgorithm::AuditSpace.
  virtual std::size_t AuditSpace() const { return kNoSpaceAudit; }

  /// See EdgeStreamAlgorithm::space_tracker.
  virtual const SpaceTracker* space_tracker() const { return nullptr; }

  /// See EdgeStreamAlgorithm::CheckpointId.
  virtual std::string_view CheckpointId() const { return {}; }

  /// See EdgeStreamAlgorithm::SaveState.
  virtual bool SaveState(StateWriter& w) const {
    (void)w;
    return false;
  }

  /// See EdgeStreamAlgorithm::RestoreState.
  virtual bool RestoreState(StateReader& r) {
    (void)r;
    return false;
  }

  /// See EdgeStreamAlgorithm::MergeFrom: linear state over a partitioned
  /// stream folds by addition into exactly the whole-stream state.
  virtual bool MergeFrom(const TurnstileStreamAlgorithm& other) {
    (void)other;
    return false;
  }
};

/// The turnstile family's RunPasses (stream/driver.h): the same pass loop,
/// block cuts and checkpoint semantics, with snapshots tagged stream kind 2.
RunOutcome RunPasses(TurnstileStreamAlgorithm& alg,
                     std::span<const TurnstileUpdate> stream,
                     std::size_t block_size, const RunOptions& options = {});

/// Runs the single pass of `alg` over `stream` (RunPasses with
/// kDefaultBlockSize).
void RunTurnstileStream(TurnstileStreamAlgorithm& alg,
                        const TurnstileStream& stream);

/// As above with checkpoint/resume/fault-injection control — the same
/// semantics as the edge/adjacency overloads (stream/driver.h): snapshots
/// are written per the policy with stream-kind tag 2, a resumed run that
/// completes is bit-identical to an uninterrupted run.
RunOutcome RunTurnstileStream(TurnstileStreamAlgorithm& alg,
                              const TurnstileStream& stream,
                              const RunOptions& options);

/// Order-sensitive fingerprint binding a snapshot to one exact turnstile
/// stream (edges *and* ops; mirrors FingerprintEdgeStream).
std::uint64_t FingerprintTurnstileStream(
    std::span<const TurnstileUpdate> updates);

/// Wraps an insert-only edge stream as a turnstile stream (every element
/// kInsert, order preserved) — how v1/text graphs enter turnstile batches.
TurnstileStream TurnstileFromEdges(std::span<const Edge> edges);

/// The live edge multiset after applying every update: an edge is live
/// while its insert count exceeds its delete count. Returned as distinct
/// edges (duplicates collapsed), in first-insertion order — the ground-
/// truth graph the CLI counts exactly against. Unmatched deletes are legal
/// here (the strict reader rejects them at ingest); a negative count
/// clamps to zero.
std::vector<Edge> LiveEdges(std::span<const TurnstileUpdate> updates);

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_DYNAMIC_TURNSTILE_H_
