#include "engine/spec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/io.h"
#include "util/serialize.h"

namespace cyclestream::engine {
namespace {

// Strict numeric value parsers. The historical parser went through
// std::stoull/std::stod, which (a) silently ignores trailing garbage
// ("seed=5x" parsed as 5) and (b) wraps negatives through the unsigned
// conversion ("seed=-1" became 2^64-1, and "budget=-1" a budget large
// enough to swallow any admission cap). Every parser here requires the
// whole token to be consumed, and the unsigned ones reject a leading sign
// outright.

bool ParseU64Strict(const std::string& value, std::uint64_t* out) {
  if (value.empty() || value[0] == '-' || value[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno == ERANGE || end == value.c_str() || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool ParseDoubleStrict(const std::string& value, double* out) {
  if (value.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno == ERANGE || end == value.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

std::string LineError(const std::string& label, std::size_t lineno,
                      const std::string& message) {
  return label + ":" + std::to_string(lineno) + ": " + message;
}

// Emits a double with enough digits to re-parse to the identical bits
// (max_digits10 == 17 for IEEE double).
std::string ExactDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ParseSpecStream(std::istream& in, const std::string& label,
                     const QuerySpec& defaults, std::vector<QuerySpec>* specs,
                     std::string* error) {
  std::string line;
  std::size_t lineno = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = LineError(label, lineno, message);
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string token;
    QuerySpec spec = defaults;
    bool any = false, have_kind = false;
    while (ls >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        return fail("token '" + token + "' is not key=value");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      any = true;
      auto bad_unsigned = [&] {
        return fail("key '" + key +
                    "' expects a non-negative integer, got '" + value + "'");
      };
      auto bad_number = [&] {
        return fail("key '" + key + "' expects a number, got '" + value +
                    "'");
      };
      std::uint64_t u = 0;
      double d = 0.0;
      if (key == "name") {
        if (value.empty()) return fail("key 'name' expects a value");
        spec.name = value;
      } else if (key == "kind") {
        const auto kind = ParseQueryKind(value);
        if (!kind.has_value()) {
          return fail("unknown query kind '" + value + "'");
        }
        spec.kind = *kind;
        have_kind = true;
      } else if (key == "seed") {
        if (!ParseU64Strict(value, &u)) return bad_unsigned();
        spec.base.seed = u;
      } else if (key == "budget") {
        if (!ParseU64Strict(value, &u)) return bad_unsigned();
        spec.space_budget_words = static_cast<std::size_t>(u);
      } else if (key == "epsilon") {
        if (!ParseDoubleStrict(value, &d)) return bad_number();
        spec.base.epsilon = d;
      } else if (key == "c") {
        if (!ParseDoubleStrict(value, &d)) return bad_number();
        spec.base.c = d;
      } else if (key == "t_guess") {
        if (!ParseDoubleStrict(value, &d)) return bad_number();
        spec.base.t_guess = d;
      } else if (key == "level_rate") {
        if (!ParseDoubleStrict(value, &d)) return bad_number();
        spec.level_rate = d;
      } else if (key == "prefix_rate") {
        if (!ParseDoubleStrict(value, &d)) return bad_number();
        spec.prefix_rate = d;
      } else if (key == "reservoir") {
        if (!ParseU64Strict(value, &u)) return bad_unsigned();
        spec.reservoir_capacity = static_cast<std::size_t>(u);
      } else if (key == "num_vertices") {
        if (!ParseU64Strict(value, &u) || u > kInvalidVertex) {
          return bad_unsigned();
        }
        spec.num_vertices = static_cast<VertexId>(u);
      } else if (key == "window") {
        if (!ParseU64Strict(value, &u)) return bad_unsigned();
        spec.window_edges = u;
      } else if (key == "window_buckets") {
        if (!ParseU64Strict(value, &u) || u == 0 || u > 4096) {
          return fail("key 'window_buckets' expects an integer in [1, 4096], "
                      "got '" + value + "'");
        }
        spec.window_buckets = u;
      } else if (key == "decay_epoch") {
        if (!ParseU64Strict(value, &u)) return bad_unsigned();
        spec.decay_epoch_edges = u;
      } else if (key == "decay_log2") {
        if (!ParseU64Strict(value, &u) || u > 32) {
          return fail("key 'decay_log2' expects an integer in [0, 32], "
                      "got '" + value + "'");
        }
        spec.decay_log2 = static_cast<std::uint32_t>(u);
      } else {
        return fail("unknown key '" + key + "'");
      }
    }
    if (!any) continue;  // Blank or comment-only line.
    if (spec.name.empty() || !have_kind) {
      return fail("query spec needs name=... and kind=...");
    }
    std::string spec_error;
    if (!ValidateSpec(spec, &spec_error)) {
      return fail(spec_error);
    }
    specs->push_back(std::move(spec));
  }
  return true;
}

bool ParseSpecFile(const std::string& path, const QuerySpec& defaults,
                   std::vector<QuerySpec>* specs, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open spec file " + path;
    return false;
  }
  return ParseSpecStream(in, path, defaults, specs, error);
}

std::string FormatSpecLine(const QuerySpec& spec) {
  CHECK(spec.name.find_first_of(" \t#=") == std::string::npos)
      << "query name '" << spec.name
      << "' is not representable in the spec format";
  std::string out;
  out += "name=" + spec.name;
  out += " kind=" + std::string(QueryKindName(spec.kind));
  out += " seed=" + std::to_string(spec.base.seed);
  out += " budget=" + std::to_string(spec.space_budget_words);
  out += " epsilon=" + ExactDouble(spec.base.epsilon);
  out += " c=" + ExactDouble(spec.base.c);
  out += " t_guess=" + ExactDouble(spec.base.t_guess);
  out += " level_rate=" + ExactDouble(spec.level_rate);
  out += " prefix_rate=" + ExactDouble(spec.prefix_rate);
  out += " reservoir=" + std::to_string(spec.reservoir_capacity);
  out += " num_vertices=" + std::to_string(spec.num_vertices);
  out += " window=" + std::to_string(spec.window_edges);
  out += " window_buckets=" + std::to_string(spec.window_buckets);
  out += " decay_epoch=" + std::to_string(spec.decay_epoch_edges);
  out += " decay_log2=" + std::to_string(spec.decay_log2);
  return out;
}

bool WriteSpecFile(const std::string& path,
                   const std::vector<QuerySpec>& specs, std::string* error) {
  std::string out =
      "# resolved query specs (engine/spec.cc); parsed by serve and the\n"
      "# shard workers.\n";
  for (const QuerySpec& spec : specs) out += FormatSpecLine(spec) + "\n";
  return io::WriteFileAtomic(path, out, error);
}

std::uint64_t FingerprintSpecs(const std::vector<QuerySpec>& specs) {
  StateWriter w;
  w.Size(specs.size());
  for (const QuerySpec& spec : specs) {
    w.Str(spec.name);
    w.Str(QueryKindName(spec.kind));
    w.U64(spec.base.seed);
    w.Double(spec.base.epsilon);
    w.Double(spec.base.c);
    w.Double(spec.base.t_guess);
    w.Double(spec.level_rate);
    w.Double(spec.prefix_rate);
    w.Size(spec.reservoir_capacity);
    w.Size(spec.space_budget_words);
    w.U32(spec.num_vertices);
    w.U64(spec.window_edges);
    w.U64(spec.window_buckets);
    w.U64(spec.decay_epoch_edges);
    w.U32(spec.decay_log2);
  }
  const std::string& bytes = w.str();
  std::uint64_t h = Mix64(0x53504543ULL ^ bytes.size());  // "SPEC"
  for (char c : bytes) {
    h = Mix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

}  // namespace cyclestream::engine
