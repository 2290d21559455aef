#include "util/metrics.h"

#include <fstream>
#include <sstream>

#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

namespace cyclestream {

void MetricsRegistry::Inc(const std::string& name, std::int64_t delta) {
  Value& v = values_[name];
  v.kind = Value::Kind::kInt;
  v.i += delta;
}

void MetricsRegistry::SetInt(const std::string& name, std::int64_t value) {
  Value& v = values_[name];
  v.kind = Value::Kind::kInt;
  v.i = value;
}

void MetricsRegistry::Set(const std::string& name, double value) {
  Value& v = values_[name];
  v.kind = Value::Kind::kDouble;
  v.d = value;
}

void MetricsRegistry::SetStr(const std::string& name, std::string value) {
  Value& v = values_[name];
  v.kind = Value::Kind::kString;
  v.s = std::move(value);
}

void MetricsRegistry::SetTiming(const std::string& name, double seconds) {
  timings_[name] = seconds;
}

void MetricsRegistry::SetExecution(const std::string& name,
                                   std::int64_t value) {
  execution_[name] = value;
}

std::int64_t MetricsRegistry::GetInt(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return 0;
  return it->second.kind == Value::Kind::kDouble
             ? static_cast<std::int64_t>(it->second.d)
             : it->second.i;
}

double MetricsRegistry::GetDouble(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) return 0.0;
  return it->second.kind == Value::Kind::kInt
             ? static_cast<double>(it->second.i)
             : it->second.d;
}

bool MetricsRegistry::Has(const std::string& name) const {
  return values_.count(name) > 0 || timings_.count(name) > 0;
}

void MetricsRegistry::Clear() {
  values_.clear();
  timings_.clear();
  execution_.clear();
}

void MetricsRegistry::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, value] : values_) {
    w.Key(name);
    switch (value.kind) {
      case Value::Kind::kInt: w.Int(value.i); break;
      case Value::Kind::kDouble: w.Double(value.d); break;
      case Value::Kind::kString: w.String(value.s); break;
    }
  }
  w.EndObject();
}

void MetricsRegistry::WriteTimingsJson(JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, seconds] : timings_) {
    w.Key(name);
    w.Double(seconds);
  }
  w.EndObject();
}

void MetricsRegistry::WriteExecutionJson(JsonWriter& w) const {
  w.BeginObject();
  for (const auto& [name, value] : execution_) {
    w.Key(name);
    w.Int(value);
  }
  w.EndObject();
}

std::string MetricsRegistry::DeterministicJson() const {
  std::ostringstream os;
  {
    JsonWriter w(os);
    WriteJson(w);
  }
  return os.str();
}

RunManifest::RunManifest(std::string experiment_id)
    : experiment_id_(std::move(experiment_id)) {}

void RunManifest::SetConfig(std::map<std::string, std::string> config) {
  config_ = std::move(config);
}

void RunManifest::SetThreads(int threads) { threads_ = threads; }

void RunManifest::AddQuerySection(const std::string& name,
                                  MetricsRegistry metrics) {
  query_sections_[name] = std::move(metrics);
}

void RunManifest::AddTable(const std::string& name, const Table& table) {
  StoredTable stored;
  stored.name = name;
  stored.title = table.title();
  stored.header = table.header();
  stored.rows = table.rows();
  tables_.push_back(std::move(stored));
}

void RunManifest::WriteImpl(std::ostream& os, bool deterministic_only) const {
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema");
  w.String("cyclestream.run_manifest/1");
  w.Key("experiment");
  w.String(experiment_id_);
  if (!deterministic_only) {
    // Environment stamps: meaningful provenance, but not part of the
    // thread-count-invariant payload (results must not depend on them).
    w.Key("git");
    w.String(BuildGitDescribe());
    w.Key("threads");
    w.Int(threads_);
  }
  w.Key("config");
  w.BeginObject();
  for (const auto& [name, value] : config_) {
    // Scheduling/robustness flags are execution policy, not configuration:
    // they must not change any result (a killed-and-resumed run is required
    // to match an uninterrupted one), so the deterministic payload omits
    // them alongside --threads.
    if (deterministic_only &&
        (name == "threads" || name == "checkpoint_dir" ||
         name == "checkpoint_every" || name == "resume" ||
         name == "kill_after" || name == "json_out" ||
         name == "json_det_out" ||
         // Shard execution policy (DESIGN.md §14): the worker count, the
         // launch mechanics, and fault injection are required to be
         // result-invariant — a W-shard manifest must compare equal to the
         // single-process one.
         name == "shards" || name == "epoch-edges" || name == "shard-dir" ||
         name == "launch" || name == "kill-shard" || name == "kill-edges" ||
         name == "worker-binary" ||
         // Supervision policy (DESIGN.md §14): retries, backoff, deadlines,
         // heartbeats, throttling, and drain/resume are recovery mechanics —
         // a supervised, killed, retried, drained-and-resumed run must
         // produce the same deterministic payload as a clean one.
         name == "daemon" || name == "max-retries" || name == "backoff-ms" ||
         name == "backoff-cap-ms" || name == "shard-deadline-ms" ||
         name == "wave-deadline-ms" || name == "heartbeat-edges" ||
         name == "hang-shard" || name == "hang-edges" ||
         name == "throttle-ms")) {
      continue;
    }
    w.Key(name);
    w.String(value);
  }
  w.EndObject();
  w.Key("metrics");
  metrics_.WriteJson(w);
  if (!query_sections_.empty()) {
    w.Key("queries");
    w.BeginObject();
    for (const auto& [name, metrics] : query_sections_) {
      w.Key(name);
      metrics.WriteJson(w);
    }
    w.EndObject();
  }
  w.Key("tables");
  w.BeginArray();
  for (const StoredTable& table : tables_) {
    w.BeginObject();
    w.Key("name");
    w.String(table.name);
    if (!table.title.empty()) {
      w.Key("title");
      w.String(table.title);
    }
    w.Key("header");
    w.BeginArray();
    for (const std::string& cell : table.header) w.String(cell);
    w.EndArray();
    w.Key("rows");
    w.BeginArray();
    for (const auto& row : table.rows) {
      w.BeginArray();
      for (const std::string& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  if (!deterministic_only) {
    w.Key("timings");
    metrics_.WriteTimingsJson(w);
    if (metrics_.has_execution()) {
      w.Key("execution");
      metrics_.WriteExecutionJson(w);
    }
  }
  w.EndObject();
  os << "\n";
}

void RunManifest::Write(std::ostream& os) const {
  WriteImpl(os, /*deterministic_only=*/false);
}

bool RunManifest::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    LOG(WARNING) << "cannot open manifest output file: " << path;
    return false;
  }
  Write(out);
  if (!out) {
    LOG(WARNING) << "failed writing manifest to: " << path;
    return false;
  }
  return true;
}

std::string RunManifest::DeterministicJson() const {
  std::ostringstream os;
  WriteImpl(os, /*deterministic_only=*/true);
  return os.str();
}

const char* BuildGitDescribe() {
#ifdef CYCLESTREAM_GIT_DESCRIBE
  return CYCLESTREAM_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

}  // namespace cyclestream
