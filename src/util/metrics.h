#ifndef CYCLESTREAM_UTIL_METRICS_H_
#define CYCLESTREAM_UTIL_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cyclestream {

class JsonWriter;
class Table;

/// Deterministic, ordered registry of named counters and gauges, the
/// machine-readable side of every experiment run. Two classes of entries:
///
///  - *metrics*: counters / gauges / labels whose values are pure functions
///    of the run's inputs (seeds, flags, workload). These must be
///    bit-identical at any thread count — manifests produced at
///    --threads=1 and --threads=8 are diffed against each other in tests.
///  - *timings*: wall-clock measurements. Inherently noisy, so they live in
///    a separate section that deterministic comparisons exclude.
///
/// Storage is an ordered map, so iteration (and the emitted JSON) never
/// depends on insertion order or hashing.
class MetricsRegistry {
 public:
  /// Adds `delta` to an integer counter (creating it at zero).
  void Inc(const std::string& name, std::int64_t delta = 1);

  /// Sets an integer gauge.
  void SetInt(const std::string& name, std::int64_t value);

  /// Sets a floating-point gauge.
  void Set(const std::string& name, double value);

  /// Sets a string label.
  void SetStr(const std::string& name, std::string value);

  /// Records a wall-clock measurement (seconds), kept out of the
  /// deterministic section.
  void SetTiming(const std::string& name, double seconds);

  /// Records an execution counter — facts about *how* the run executed
  /// (checkpoints written, restores performed) rather than what it computed.
  /// Like timings, these live outside the deterministic section: a killed
  /// and resumed run must produce a byte-identical deterministic payload to
  /// an uninterrupted one, and these counters legitimately differ.
  void SetExecution(const std::string& name, std::int64_t value);

  /// Reads an integer counter/gauge (0 when absent; doubles truncate).
  std::int64_t GetInt(const std::string& name) const;

  /// Reads a floating-point gauge (0.0 when absent).
  double GetDouble(const std::string& name) const;

  bool Has(const std::string& name) const;
  bool empty() const { return values_.empty() && timings_.empty(); }
  void Clear();

  /// Writes the deterministic section as a JSON object value (the caller
  /// positions the writer after a Key).
  void WriteJson(JsonWriter& w) const;

  /// Writes the timings section as a JSON object value.
  void WriteTimingsJson(JsonWriter& w) const;

  /// Writes the execution section as a JSON object value.
  void WriteExecutionJson(JsonWriter& w) const;
  bool has_execution() const { return !execution_.empty(); }

  /// Standalone deterministic JSON object (tests).
  std::string DeterministicJson() const;

 private:
  struct Value {
    enum class Kind { kInt, kDouble, kString };
    Kind kind = Kind::kInt;
    std::int64_t i = 0;
    double d = 0.0;
    std::string s;
  };

  std::map<std::string, Value> values_;
  std::map<std::string, double> timings_;
  std::map<std::string, std::int64_t> execution_;
};

/// Structured description of one experiment (or CLI) run: configuration,
/// environment, deterministic metrics, the emitted tables, and wall-clock
/// timings. Serialized with --json_out next to the human-readable text
/// table so every EXPERIMENTS.md claim is a regenerable, diffable artifact.
///
/// `Write` emits the full manifest; `DeterministicJson` omits the
/// environment stamp (git revision) and the timings section, yielding a
/// byte-identical string for equal-seed runs at any thread count.
class RunManifest {
 public:
  explicit RunManifest(std::string experiment_id);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Records the run configuration (typically FlagParser::values()).
  void SetConfig(std::map<std::string, std::string> config);

  /// Records the resolved worker-thread count.
  void SetThreads(int threads);

  /// Captures a rendered result table (header + rows) under `name`.
  void AddTable(const std::string& name, const Table& table);

  /// Records one engine query's metrics as a named sub-section, emitted
  /// under "queries" in both the full and deterministic payloads (ordered
  /// by name). Only the deterministic side of `metrics` is emitted, so the
  /// section is thread-count-invariant by construction. Re-adding a name
  /// replaces the section.
  void AddQuerySection(const std::string& name, MetricsRegistry metrics);

  /// Writes the full manifest JSON.
  void Write(std::ostream& os) const;

  /// Writes the full manifest (with `deterministic_only`, the
  /// DeterministicJson() payload) to `path` through io::WriteFileAtomic;
  /// false (with a logged warning) on I/O failure.
  bool WriteFile(const std::string& path,
                 bool deterministic_only = false) const;

  /// Thread-count-invariant serialization (tests, diffing).
  std::string DeterministicJson() const;

 private:
  void WriteImpl(std::ostream& os, bool deterministic_only) const;

  struct StoredTable {
    std::string name;
    std::string title;
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };

  std::string experiment_id_;
  int threads_ = 0;
  std::map<std::string, std::string> config_;
  std::vector<StoredTable> tables_;
  MetricsRegistry metrics_;
  std::map<std::string, MetricsRegistry> query_sections_;
};

/// The `git describe --always --dirty` stamp baked in at configure time
/// ("unknown" when built outside a git checkout).
const char* BuildGitDescribe();

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_METRICS_H_
