#include "engine/query.h"

#include <cmath>
#include <sstream>
#include <string_view>
#include <utility>

#include "baselines/bera_chakrabarti.h"
#include "baselines/cormode_jowhari.h"
#include "baselines/triest.h"
#include "core/adj_f2_counter.h"
#include "core/adj_l2_counter.h"
#include "core/arb_f2_counter.h"
#include "core/arb_three_pass.h"
#include "core/diamond_counter.h"
#include "core/random_order_triangles.h"
#include "core/turnstile_f2.h"
#include "stream/window/window.h"
#include "util/check.h"

namespace cyclestream::engine {
namespace {

// Wraps a concrete algorithm (which owns its own Result() signature) into
// the type-erased query pair. The closure captures a raw pointer into the
// unique_ptr it rides alongside, so it stays valid for the query's lifetime.
template <typename Alg>
EdgeQuery WrapEdge(std::unique_ptr<Alg> alg) {
  Alg* raw = alg.get();
  return EdgeQuery{std::move(alg), [raw] { return raw->Result(); }};
}

template <typename Alg>
AdjacencyQuery WrapAdjacency(std::unique_ptr<Alg> alg) {
  Alg* raw = alg.get();
  return AdjacencyQuery{std::move(alg), [raw] { return raw->Result(); }};
}

}  // namespace

std::string_view QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
      return "random-order";
    case QueryKind::kTriest:
      return "triest";
    case QueryKind::kCormodeJowhari:
      return "cormode-jowhari";
    case QueryKind::kArbF2:
      return "arb-f2";
    case QueryKind::kArbThreePass:
      return "arb-three-pass";
    case QueryKind::kBeraChakrabarti:
      return "bera-chakrabarti";
    case QueryKind::kAdjDiamond:
      return "adj-diamond";
    case QueryKind::kAdjF2:
      return "adj-f2";
    case QueryKind::kAdjL2:
      return "adj-l2";
    case QueryKind::kTurnstileF2Triangle:
      return "turnstile-f2-triangle";
    case QueryKind::kTurnstileF2C4:
      return "turnstile-f2-c4";
  }
  CHECK(false) << "unreachable QueryKind " << static_cast<int>(kind);
  return "";
}

std::optional<QueryKind> ParseQueryKind(std::string_view name) {
  for (QueryKind kind :
       {QueryKind::kRandomOrderTriangles, QueryKind::kTriest,
        QueryKind::kCormodeJowhari, QueryKind::kArbF2,
        QueryKind::kArbThreePass, QueryKind::kBeraChakrabarti,
        QueryKind::kAdjDiamond, QueryKind::kAdjF2, QueryKind::kAdjL2,
        QueryKind::kTurnstileF2Triangle, QueryKind::kTurnstileF2C4}) {
    if (name == QueryKindName(kind)) return kind;
  }
  return std::nullopt;
}

bool IsEdgeKind(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
    case QueryKind::kTriest:
    case QueryKind::kCormodeJowhari:
    case QueryKind::kArbF2:
    case QueryKind::kArbThreePass:
    case QueryKind::kBeraChakrabarti:
      return true;
    case QueryKind::kAdjDiamond:
    case QueryKind::kAdjF2:
    case QueryKind::kAdjL2:
    case QueryKind::kTurnstileF2Triangle:
    case QueryKind::kTurnstileF2C4:
      return false;
  }
  CHECK(false) << "unreachable QueryKind " << static_cast<int>(kind);
  return false;
}

bool IsTurnstileKind(QueryKind kind) {
  return kind == QueryKind::kTurnstileF2Triangle ||
         kind == QueryKind::kTurnstileF2C4;
}

bool IsShardMergeableKind(QueryKind kind) {
  return kind == QueryKind::kArbF2;
}

std::string_view QueryKindTarget(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandomOrderTriangles:
    case QueryKind::kTriest:
    case QueryKind::kCormodeJowhari:
    case QueryKind::kTurnstileF2Triangle:
      return "triangles";
    default:
      return "c4";
  }
}

bool ValidateSpec(const QuerySpec& spec, std::string* error) {
  auto fail = [&](std::string message) {
    if (error != nullptr) {
      *error = "query '" + spec.name + "': " + std::move(message);
    }
    return false;
  };
  if (spec.kind == QueryKind::kRandomOrderTriangles &&
      (std::isnan(spec.base.t_guess) ||
       RandomOrderTriangleCounter::NumLevels(spec.base.t_guess) >
           RandomOrderTriangleCounter::kMaxLevels)) {
    std::ostringstream message;
    message << "t_guess " << spec.base.t_guess
            << " must be a number no larger than 2^126: random-order keeps "
               "one mask bit per level, and at most "
            << RandomOrderTriangleCounter::kMaxLevels << " levels fit";
    return fail(message.str());
  }
  const std::pair<const char*, double> reals[] = {
      {"epsilon", spec.base.epsilon},  {"c", spec.base.c},
      {"t_guess", spec.base.t_guess},  {"level_rate", spec.level_rate},
      {"prefix_rate", spec.prefix_rate}};
  for (const auto& [key, value] : reals) {
    if (!std::isfinite(value)) {
      std::ostringstream message;
      message << key << " must be a finite number, got " << value;
      return fail(message.str());
    }
  }
  if (spec.base.epsilon <= 0.0) {
    std::ostringstream message;
    message << "epsilon must be > 0, got " << spec.base.epsilon;
    return fail(message.str());
  }
  if (spec.kind == QueryKind::kTriest && spec.reservoir_capacity < 3) {
    return fail("reservoir must be >= 3, got " +
                std::to_string(spec.reservoir_capacity));
  }
  // 0 asks the front end for the graph's vertex count; the sketch kinds
  // need two vertices to hash a pair.
  const bool any_vertex_count =
      spec.kind == QueryKind::kRandomOrderTriangles ||
      spec.kind == QueryKind::kTriest ||
      spec.kind == QueryKind::kCormodeJowhari ||
      spec.kind == QueryKind::kBeraChakrabarti;
  if (spec.num_vertices == 1 && !any_vertex_count) {
    return fail("num_vertices must be >= 2 for " +
                std::string(QueryKindName(spec.kind)));
  }
  const bool windowed = spec.window_edges > 0;
  const bool decayed = spec.decay_epoch_edges > 0;
  if (!windowed && !decayed) {
    if (spec.decay_log2 != 0) {
      return fail("decay_log2 has no effect without decay_epoch > 0");
    }
    return true;
  }
  if (!IsTurnstileKind(spec.kind)) {
    return fail("window/decay require a turnstile kind, not " +
                std::string(QueryKindName(spec.kind)));
  }
  if (windowed && decayed) {
    return fail("window and decay are mutually exclusive");
  }
  if (windowed) {
    if (spec.window_buckets == 0) {
      return fail("window_buckets must be >= 1");
    }
    if (spec.window_edges % spec.window_buckets != 0) {
      return fail("window (" + std::to_string(spec.window_edges) +
                  ") must be a multiple of window_buckets (" +
                  std::to_string(spec.window_buckets) + ")");
    }
    if (spec.decay_log2 != 0) {
      return fail("decay_log2 has no effect without decay_epoch > 0");
    }
  } else {
    if (spec.decay_log2 < 1 || spec.decay_log2 > 32) {
      return fail("decay_log2 must be in [1, 32] (exact power-of-two decay "
                  "factors), got " + std::to_string(spec.decay_log2));
    }
  }
  return true;
}

EdgeQuery MakeEdgeQuery(const QuerySpec& spec) {
  CHECK(IsEdgeKind(spec.kind))
      << "MakeEdgeQuery: '" << spec.name << "' has adjacency kind "
      << QueryKindName(spec.kind);
  switch (spec.kind) {
    case QueryKind::kRandomOrderTriangles: {
      RandomOrderTriangleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      p.level_rate = spec.level_rate;
      p.prefix_rate = spec.prefix_rate;
      return WrapEdge(std::make_unique<RandomOrderTriangleCounter>(p));
    }
    case QueryKind::kTriest: {
      Triest::Params p;
      p.reservoir_capacity = spec.reservoir_capacity;
      p.seed = spec.base.seed;
      return WrapEdge(std::make_unique<Triest>(p));
    }
    case QueryKind::kCormodeJowhari: {
      CormodeJowhariCounter::Params p;
      p.base = spec.base;
      p.prefix_rate = spec.prefix_rate;
      return WrapEdge(std::make_unique<CormodeJowhariCounter>(p));
    }
    case QueryKind::kArbF2: {
      ArbF2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapEdge(std::make_unique<ArbF2FourCycleCounter>(p));
    }
    case QueryKind::kArbThreePass: {
      ArbThreePassFourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapEdge(std::make_unique<ArbThreePassFourCycleCounter>(p));
    }
    case QueryKind::kBeraChakrabarti: {
      BeraChakrabartiCounter::Params p;
      p.base = spec.base;
      return WrapEdge(std::make_unique<BeraChakrabartiCounter>(p));
    }
    default:
      break;
  }
  CHECK(false) << "unreachable edge QueryKind";
  return {};
}

AdjacencyQuery MakeAdjacencyQuery(const QuerySpec& spec) {
  CHECK(!IsEdgeKind(spec.kind))
      << "MakeAdjacencyQuery: '" << spec.name << "' has edge kind "
      << QueryKindName(spec.kind);
  switch (spec.kind) {
    case QueryKind::kAdjDiamond: {
      DiamondFourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<DiamondFourCycleCounter>(p));
    }
    case QueryKind::kAdjF2: {
      AdjF2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<AdjF2FourCycleCounter>(p));
    }
    case QueryKind::kAdjL2: {
      AdjL2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      return WrapAdjacency(std::make_unique<AdjL2FourCycleCounter>(p));
    }
    default:
      break;
  }
  CHECK(false) << "unreachable adjacency QueryKind";
  return {};
}

TurnstileQuery MakeTurnstileQuery(const QuerySpec& spec) {
  CHECK(IsTurnstileKind(spec.kind))
      << "MakeTurnstileQuery: '" << spec.name << "' has non-turnstile kind "
      << QueryKindName(spec.kind);
  std::string spec_error;
  CHECK(ValidateSpec(spec, &spec_error)) << spec_error;

  // The factory builds a fresh base estimator with the spec's exact
  // result-affecting configuration — called once for an unwindowed query,
  // once per bucket (plus once per Result()) for a windowed one. The sign
  // cache depends only on that configuration, so it is built here once and
  // every instance shares it read-only.
  TurnstileAlgorithmFactory factory;
  std::string_view inner_id;
  switch (spec.kind) {
    case QueryKind::kTurnstileF2Triangle: {
      TurnstileF2TriangleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      factory = [p, signs = TurnstileF2TriangleCounter::MakeSigns(p)] {
        return std::make_unique<TurnstileF2TriangleCounter>(p, signs);
      };
      inner_id = TurnstileF2TriangleCounter::kCheckpointId;
      break;
    }
    case QueryKind::kTurnstileF2C4: {
      TurnstileF2FourCycleCounter::Params p;
      p.base = spec.base;
      p.num_vertices = spec.num_vertices;
      factory = [p, signs = ArbF2FourCycleCounter::MakeSigns(p)] {
        return std::make_unique<TurnstileF2FourCycleCounter>(p, signs);
      };
      inner_id = TurnstileF2FourCycleCounter::kCheckpointId;
      break;
    }
    default:
      CHECK(false) << "unreachable turnstile QueryKind";
  }

  std::unique_ptr<TurnstileStreamAlgorithm> alg;
  if (spec.window_edges > 0) {
    alg = std::make_unique<SlidingWindowAlgorithm>(
        factory, inner_id, spec.window_edges, spec.window_buckets);
  } else if (spec.decay_epoch_edges > 0) {
    alg = std::make_unique<DecayAlgorithm>(factory(), spec.decay_epoch_edges,
                                           spec.decay_log2);
  } else {
    alg = factory();
  }
  TurnstileStreamAlgorithm* raw = alg.get();
  return TurnstileQuery{std::move(alg), [raw] { return raw->Result(); }};
}

}  // namespace cyclestream::engine
