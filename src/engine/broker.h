#ifndef CYCLESTREAM_ENGINE_BROKER_H_
#define CYCLESTREAM_ENGINE_BROKER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "engine/budget.h"
#include "engine/query.h"
#include "graph/binary_io.h"
#include "stream/order.h"

namespace cyclestream {
class RunManifest;
}  // namespace cyclestream

namespace cyclestream::engine {

/// Zero-copy view of a validated mmap'd binary edge stream: converts to
/// the span RunEdgeQueries takes, so blocks point straight into the
/// mapping. Borrows the reader.
class BinaryEdgeSource {
 public:
  explicit BinaryEdgeSource(const BinaryEdgeReader& reader)
      : reader_(reader) {}

  operator std::span<const Edge>() const {
    return {reader_.edges(), reader_.num_edges()};
  }

 private:
  const BinaryEdgeReader& reader_;
};

/// Broker tuning.
struct BrokerOptions {
  /// Edges (or adjacency lists, or updates) per fan-out block. Blocks
  /// amortize the per-dispatch synchronization without affecting results:
  /// per-query delivery order is the stream order regardless of block size.
  std::size_t block_size = kDefaultBlockSize;
  /// Admission policy; default (zeros) admits everything in one wave.
  BudgetPolicy budget;
};

/// Result of one query after its wave ran (or didn't).
struct QueryOutcome {
  QuerySpec spec;
  /// Final admission state: kAdmitted (the query ran — possibly after
  /// queuing; see `wave`) or kRejected. kQueued is transient and never the
  /// final state of a completed batch.
  AdmissionOutcome admission = AdmissionOutcome::kRejected;
  /// Which wave ran it (0-based; > 0 means it was queued at least once);
  /// -1 for rejected queries.
  int wave = -1;
  /// The estimator's result; zero-initialized for rejected queries.
  Estimate estimate;
  int passes = 0;  // The algorithm's own NumPasses().
  std::uint64_t items_delivered = 0;  // passes × stream length.
  /// Peak-space component breakdown (empty if the algorithm lacks a
  /// tracker or was rejected).
  std::map<std::string, std::size_t, std::less<>> space_peak_components;
  /// Sharded runs only: the query's wave exhausted its retry budget and
  /// was abandoned without a result (estimate is zero-initialized). The
  /// single-process broker never poisons.
  bool poisoned = false;
};

/// Aggregate accounting for one broker batch.
struct EngineStats {
  std::uint64_t source_items_read = 0;  // Edges (or lists) read from the
                                        // source, summed over physical
                                        // passes — the "one read serves N
                                        // queries" claim is this counter.
  std::uint64_t items_delivered = 0;    // Process* calls across queries.
  std::uint64_t physical_passes = 0;    // Stream reads (all waves).
  std::uint64_t waves = 0;
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_queued = 0;   // Admitted in a wave after their first
                                      // offer (still counted in admitted).
  std::uint64_t queries_rejected = 0;
  std::uint64_t budget_peak_words = 0;  // Peak reserved words at any moment.
};

/// Multi-query stream engine: registers N QuerySpecs, then makes a single
/// physical pass (per logical pass number, per wave) over the stream and
/// fans each block out to every admitted query. Each wave is one RunPasses
/// call (stream/driver.h), the same pass loop a standalone run uses.
///
/// Determinism contract: each query's state is private and its edges arrive
/// in stream order with the same positions RunEdgeStream would use, so each
/// query is bit-identical to a standalone run of the same spec over the same
/// stream — at any thread count and any block size. Parallelism comes from
/// pinning queries to shards (query slot s → shard s mod num_shards, each
/// shard processed serially by one ParallelFor index), which parallelizes
/// *across* queries, never within one.
///
/// Scheduling: queries run in waves. Wave 0 takes every spec the admission
/// controller admits immediately; queued specs retry (in registration
/// order) each time a wave completes and releases its reservations. Each
/// wave costs max(NumPasses among its queries) physical stream reads.
/// Rejected specs never run and report zeroed estimates.
///
/// One-shot: Run*Queries may be called once per broker instance.
class StreamBroker {
 public:
  explicit StreamBroker(const BrokerOptions& options = BrokerOptions());

  /// Registers a query; returns its slot index. Names must be unique (they
  /// key the manifest sections); duplicates abort.
  std::size_t AddQuery(QuerySpec spec);

  /// Runs every registered edge-kind query over `stream` (a vector, or a
  /// BinaryEdgeSource over the mmap). Aborts if any registered spec has an
  /// adjacency kind. Outcomes are in registration order.
  std::vector<QueryOutcome> RunEdgeQueries(std::span<const Edge> stream);

  /// Runs every registered adjacency-kind query over `stream`. Aborts if
  /// any registered spec has an edge kind.
  std::vector<QueryOutcome> RunAdjacencyQueries(
      std::span<const AdjacencyList> stream);

  /// Runs every registered turnstile-kind query over `stream`. Aborts if
  /// any registered spec has a non-turnstile kind. The same determinism
  /// contract as the edge path: each query sees the updates in stream order
  /// at the standalone positions, so windowed/decayed estimates are
  /// bit-identical at any thread count and block size.
  std::vector<QueryOutcome> RunTurnstileQueries(
      std::span<const TurnstileUpdate> stream);

  /// Valid after a Run*Queries call.
  const EngineStats& stats() const { return stats_; }

 private:
  template <typename Item, typename Make>
  std::vector<QueryOutcome> RunBatch(std::span<const Item> stream, Make make);

  BrokerOptions options_;
  std::vector<QuerySpec> specs_;
  EngineStats stats_;
  bool ran_ = false;
};

/// Exports a batch into a manifest: aggregate counters under "engine." in
/// the main metrics, plus one per-query section (estimate, space breakdown,
/// admission outcome) keyed by the query's name. Everything exported here
/// is deterministic — it survives DeterministicJson().
void ExportToManifest(const std::vector<QueryOutcome>& outcomes,
                      const EngineStats& stats, RunManifest& manifest);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_BROKER_H_
