#ifndef CYCLESTREAM_BENCH_BENCH_COMMON_H_
#define CYCLESTREAM_BENCH_BENCH_COMMON_H_

// Shared helpers for the experiment binaries (exp_*). Each binary
// regenerates one table of EXPERIMENTS.md; they all follow the same shape:
// build workloads, run R trials per configuration, aggregate with
// Summarize, print a Table. Common flags: --trials, --seed, --csv, --quick,
// --threads.
//
// Trials run in parallel on the process-wide pool (ConfigureThreads /
// --threads). The trial lambdas follow the deterministic contract of
// util/parallel.h: trial t derives every seed from t alone, reads shared
// workload state (EdgeList / Graph / pre-built streams) only through const
// references, and returns its results by value. Aggregation happens
// serially in trial order, so the printed tables are bit-identical at any
// thread count.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arb_f2_counter.h"
#include "graph/dodg.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "stream/driver.h"
#include "stream/order.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/table.h"

namespace cyclestream::bench {

/// Refuses to run a throughput benchmark from an unoptimized build: numbers
/// from a -O0/assert-enabled binary are meaningless and, committed as a
/// baseline, would poison every later regression comparison. Exits with an
/// error unless NDEBUG is defined; set CYCLESTREAM_BENCH_ALLOW_DEBUG=1 to
/// override (e.g. when smoke-testing the harness itself under a sanitizer).
inline void RequireOptimizedBuild(const char* binary) {
#ifndef NDEBUG
  if (std::getenv("CYCLESTREAM_BENCH_ALLOW_DEBUG") == nullptr) {
    std::cerr
        << "ERROR: " << binary << " was built without NDEBUG (a Debug or "
        << "assert-enabled build).\n"
        << "Benchmark numbers from this binary are not comparable to the\n"
        << "committed Release baselines. Rebuild with "
        << "-DCMAKE_BUILD_TYPE=Release,\n"
        << "or set CYCLESTREAM_BENCH_ALLOW_DEBUG=1 to run anyway.\n";
    std::exit(1);
  }
  std::cerr << "WARNING: " << binary
            << " running without NDEBUG; numbers are not comparable to "
               "Release baselines.\n";
#else
  (void)binary;
#endif
}

/// Reads --threads (0 = hardware concurrency; 1 = serial) and installs it
/// as the process-wide default for the parallel layer. Every experiment
/// driver calls this right after constructing its FlagParser. Returns the
/// resolved thread count.
inline int ConfigureThreads(FlagParser& flags) {
  return ApplyThreadsFlag(flags);
}

/// Reads the robustness flags (--checkpoint_dir, --checkpoint_every,
/// --resume, --kill_after) and installs the process-wide checkpoint
/// configuration; forces --threads=1 when active (see
/// ApplyCheckpointFlags in stream/driver.h).
inline bool ConfigureCheckpointing(FlagParser& flags, int* threads) {
  return ApplyCheckpointFlags(flags, threads);
}

/// Runs `trials` executions of `run` (as run(0..trials-1), concurrently)
/// and returns the per-trial results in trial order — exactly the vector a
/// serial loop would produce. Use this for bespoke trial loops (success
/// counts, multi-output trials); `run` must be thread-safe per the contract
/// above.
template <typename Fn,
          typename R = std::decay_t<std::invoke_result_t<Fn, int>>>
std::vector<R> CollectTrials(int trials, Fn run) {
  return ParallelMap(static_cast<std::size_t>(std::max(0, trials)),
                     [&run](std::size_t t) {
                       return run(static_cast<int>(t));
                     });
}

/// Aggregated accuracy/space over trials of one configuration.
struct TrialStats {
  Summary rel_error;     // |estimate/truth - 1| per trial.
  Summary space_words;
  Summary estimate;
};

/// Aggregates already-collected (estimate, space_words) results against
/// `truth`. Shared by RunTrials and by callers that obtain their per-trial
/// results some other way (the engine's shared-pass batches), so both paths
/// summarize identically.
inline TrialStats SummarizeTrials(
    const std::vector<std::pair<double, std::size_t>>& results, double truth) {
  std::vector<double> errors, spaces, estimates;
  errors.reserve(results.size());
  spaces.reserve(results.size());
  estimates.reserve(results.size());
  for (const auto& [estimate, space] : results) {
    errors.push_back(RelativeError(estimate, truth));
    spaces.push_back(static_cast<double>(space));
    estimates.push_back(estimate);
  }
  TrialStats stats;
  stats.rel_error = Summarize(std::move(errors));
  stats.space_words = Summarize(std::move(spaces));
  stats.estimate = Summarize(std::move(estimates));
  return stats;
}

/// Runs `trials` executions of `run` (seeded 0..trials-1, concurrently)
/// against `truth` and aggregates. `run` returns (estimate, space_words).
inline TrialStats RunTrials(
    int trials, double truth,
    const std::function<std::pair<double, std::size_t>(int)>& run) {
  return SummarizeTrials(CollectTrials(trials, run), truth);
}

/// Standard experiment header: prints the experiment id, the paper claim
/// under test, and the workload description.
inline void PrintHeader(const std::string& id, const std::string& claim,
                        const std::string& workload) {
  std::cout << "\n=====================================================\n"
            << id << "\n"
            << "claim:    " << claim << "\n"
            << "workload: " << workload << "\n"
            << "=====================================================\n";
}

/// Per-run harness shared by every experiment binary: resolves the common
/// flags (--threads, --json_out, --json_det_out, --audit, --checkpoint_dir,
/// --checkpoint_every, --resume, --kill_after), arms the driver-level space
/// audit and checkpointing, and assembles the run manifest. Usage:
///
///   FlagParser flags(argc, argv);
///   bench::ExperimentContext ctx("E2", flags);
///   ... read flags, run, print tables ...
///   ctx.RecordTable("scaling", table);
///   ctx.metrics().SetInt("rows", table.num_rows());
///   return ctx.Finish();
///
/// Finish() folds the global stream-driver counters into the metrics, warns
/// about unused flags on stderr, and writes the manifest when --json_out
/// was given. The deterministic portion of the manifest (config, metrics,
/// tables) is bit-identical at any --threads value; wall-clock timings and
/// environment stamps live in separate sections.
class ExperimentContext {
 public:
  ExperimentContext(const std::string& experiment_id, FlagParser& flags)
      : flags_(flags), manifest_(experiment_id) {
    int threads = ConfigureThreads(flags);
    checkpointing_ = ConfigureCheckpointing(flags, &threads);
    // Every driver's exact ground truth (and the audit path) goes through
    // CountTriangles/CountFourCycles, so installing the backend here makes
    // --exact_backend=dodg work across all experiment binaries at once.
    ApplyExactBackendFlag(flags);
    manifest_.SetThreads(threads);
    json_out_ = flags.GetString("json_out", "");
    json_det_out_ = flags.GetString("json_det_out", "");
    SetSpaceAudit(flags.GetBool("audit", false));
    ResetStreamStats();
  }

  MetricsRegistry& metrics() { return manifest_.metrics(); }

  void RecordTable(const std::string& name, const Table& table) {
    manifest_.AddTable(name, table);
  }

  /// Final bookkeeping; returns the process exit code for main().
  int Finish() {
    const StreamStats stats = GlobalStreamStats();
    MetricsRegistry& m = manifest_.metrics();
    m.SetInt("stream.runs", static_cast<std::int64_t>(stats.runs));
    m.SetInt("stream.passes", static_cast<std::int64_t>(stats.passes));
    if (stats.edges_processed > 0) {
      m.SetInt("stream.edges_processed",
               static_cast<std::int64_t>(stats.edges_processed));
    }
    if (stats.lists_processed > 0) {
      m.SetInt("stream.lists_processed",
               static_cast<std::int64_t>(stats.lists_processed));
    }
    if (SpaceAuditEnabled()) {
      m.SetInt("stream.audits_passed",
               static_cast<std::int64_t>(stats.audits_passed));
    }
    for (int pass = 0; pass < 4; ++pass) {
      if (stats.pass_seconds[pass] > 0.0) {
        m.SetTiming("stream.pass" + std::to_string(pass) + ".seconds",
                    stats.pass_seconds[pass]);
      }
    }
    if (checkpointing_ || stats.checkpoints_written > 0 ||
        stats.checkpoint_failures > 0 || stats.restores > 0 ||
        stats.restore_rejects > 0) {
      m.SetExecution("stream.checkpoints_written",
                     static_cast<std::int64_t>(stats.checkpoints_written));
      m.SetExecution("stream.checkpoint_failures",
                     static_cast<std::int64_t>(stats.checkpoint_failures));
      m.SetExecution("stream.restores",
                     static_cast<std::int64_t>(stats.restores));
      m.SetExecution("stream.restore_rejects",
                     static_cast<std::int64_t>(stats.restore_rejects));
    }
    manifest_.SetConfig(flags_.values());
    WarnUnusedFlags(flags_, std::cerr);
    if (!json_out_.empty()) {
      if (!manifest_.WriteFile(json_out_)) return 1;
      std::cerr << "run manifest written to " << json_out_ << "\n";
    }
    if (!json_det_out_.empty()) {
      std::ofstream out(json_det_out_);
      if (out) out << manifest_.DeterministicJson();
      if (!out) {
        std::cerr << "ERROR: cannot write deterministic manifest to "
                  << json_det_out_ << "\n";
        return 1;
      }
      std::cerr << "deterministic manifest written to " << json_det_out_
                << "\n";
    }
    return 0;
  }

  const RunManifest& manifest() const { return manifest_; }

 private:
  FlagParser& flags_;
  RunManifest manifest_;
  std::string json_out_;
  std::string json_det_out_;
  bool checkpointing_ = false;
};

/// Fits the slope of log(y) against log(x) by least squares — used by the
/// space-scaling experiments to verify exponents (e.g. ≈ -0.5 for m/√T).
inline double LogLogSlope(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  return denom == 0.0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

/// The memory one arb-f2 edge update touches at `counter`'s current slot
/// width: the two endpoints' rows, 2·(2C+1) slots, plus the α and β bytes
/// of the other endpoint of each, 4·C. C is read off the sign caches.
inline double ArbF2BytesPerEdge(
    const ArbF2FourCycleCounter& counter,
    const ArbF2FourCycleCounter::Signs& signs, std::size_t num_vertices) {
  const std::size_t copies = signs.alpha.size() / num_vertices;
  // int16, int32, double: 2, 4, 8 bytes.
  const std::size_t slot_bytes = std::size_t{2}
                                 << static_cast<int>(counter.slot_width());
  return static_cast<double>(
      2 * ArbF2FourCycleCounter::RowSlots(copies) * slot_bytes + 4 * copies);
}

}  // namespace cyclestream::bench

#endif  // CYCLESTREAM_BENCH_BENCH_COMMON_H_
