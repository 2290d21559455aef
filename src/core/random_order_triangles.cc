#include "core/random_order_triangles.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string_view>
#include <utility>

#include "hash/rng.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace cyclestream {

void RandomOrderTriangleCounter::SampledGraph::Link(const Edge& e) {
  edges_.insert(e.Key());
  // row_of_ stores index + 1, so a fresh (zero) entry means a new row.
  auto append = [this](VertexId a, VertexId b) {
    std::uint32_t& index = row_of_[a];
    if (index == 0) {
      rows_.push_back(Row{a, {}});
      index = static_cast<std::uint32_t>(rows_.size());
    }
    rows_[index - 1].neighbors.push_back(b);
  };
  append(e.u, e.v);
  append(e.v, e.u);
}

std::size_t RandomOrderTriangleCounter::SampledGraph::links() const {
  std::size_t entries = 0;
  for (const Row& row : rows_) entries += row.neighbors.size();
  return entries / 2;
}

const std::vector<VertexId>*
RandomOrderTriangleCounter::SampledGraph::Neighbors(VertexId v) const {
  const std::uint32_t* index = row_of_.find(v);
  return index == nullptr ? nullptr : &rows_[*index - 1].neighbors;
}

template <typename Visit>
void RandomOrderTriangleCounter::SampledGraph::ForEachCommonNeighbor(
    const Edge& e, Visit visit) const {
  const std::vector<VertexId>* nu = Neighbors(e.u);
  const std::vector<VertexId>* nv = Neighbors(e.v);
  if (nu == nullptr || nv == nullptr) return;
  const bool u_smaller = nu->size() <= nv->size();
  const VertexId other = u_smaller ? e.v : e.u;
  for (const VertexId w : u_smaller ? *nu : *nv) {
    if (w == e.u || w == e.v) continue;
    if (edges_.contains(Edge(other, w).Key()) && !visit(w)) return;
  }
}

bool RandomOrderTriangleCounter::SampledGraph::ClosesTriangle(
    const Edge& e) const {
  bool found = false;
  ForEachCommonNeighbor(e, [&found](VertexId) {
    found = true;
    return false;
  });
  return found;
}

template <typename Visit>
void RandomOrderTriangleCounter::SampledGraph::ForEachEdge(Visit visit) const {
  for (const Row& row : rows_) {
    for (const VertexId w : row.neighbors) {
      if (row.vertex < w) visit(Edge(row.vertex, w));
    }
  }
}

void RandomOrderTriangleCounter::SampledGraph::Save(StateWriter& w) const {
  w.Size(rows_.size());
  for (const Row& row : rows_) {
    w.U32(row.vertex);
    w.Vec(row.neighbors);
  }
}

bool RandomOrderTriangleCounter::SampledGraph::Restore(StateReader& r,
                                                       VertexId num_vertices) {
  SampledGraph g;
  // Each edge key gains 1 from its lower endpoint's row and loses 1 from
  // its upper one's, so a zero balance everywhere means every edge is
  // listed from both ends equally often.
  FlatMap64<std::int64_t> balance;
  const std::size_t num_rows = r.Size();
  if (!r.ok() || num_rows > num_vertices || num_rows > r.Remaining()) {
    return r.Fail();
  }
  g.rows_.reserve(num_rows);
  for (std::size_t i = 0; i < num_rows; ++i) {
    Row row;
    row.vertex = r.U32();
    if (!r.Vec(&row.neighbors) || row.vertex >= num_vertices ||
        row.neighbors.empty() || g.row_of_.contains(row.vertex)) {
      return r.Fail();
    }
    for (const VertexId w : row.neighbors) {
      if (w >= num_vertices || w == row.vertex) return r.Fail();
      const Edge e(row.vertex, w);
      if (row.vertex < w) {
        g.edges_.insert(e.Key());
        ++balance[e.Key()];
      } else {
        --balance[e.Key()];
      }
    }
    g.row_of_[row.vertex] = static_cast<std::uint32_t>(g.rows_.size() + 1);
    g.rows_.push_back(std::move(row));
  }
  for (const auto& [key, count] : balance) {
    if (count != 0) return r.Fail();
  }
  *this = std::move(g);
  return true;
}

template <typename MaskFn>
RandomOrderTriangleCounter::LevelStore::Row&
RandomOrderTriangleCounter::LevelStore::RowFor(VertexId v, MaskFn in_v) {
  std::uint32_t& index = row_of_[v];
  if (index == 0) {
    rows_.push_back(Row{in_v(v), 0, {}});
    index = static_cast<std::uint32_t>(rows_.size());
  }
  return rows_[index - 1];
}

template <typename MaskFn>
bool RandomOrderTriangleCounter::LevelStore::Insert(const Edge& e,
                                                    std::uint64_t position,
                                                    std::uint64_t mask,
                                                    MaskFn in_v) {
  std::uint32_t& slot = index_of_[e.Key()];
  if (slot != 0) return false;
  const auto index = static_cast<std::uint32_t>(stored_.size());
  slot = index + 1;
  stored_.push_back(Stored{e, position});
  masks_.push_back(mask);
  const std::uint32_t oracle = (mask & top_bit_) != 0 ? 1 : 0;
  // One endpoint at a time: creating v's row may move u's.
  for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
    Row& row = RowFor(a, in_v);
    row.entries.push_back(Entry{b, index});
    row.oracle_degree += oracle;
  }
  return true;
}

bool RandomOrderTriangleCounter::LevelStore::ClosesTriangle(
    const Edge& e, std::uint64_t levels) const {
  const Row* ru = FindRow(e.u);
  const Row* rv = FindRow(e.v);
  if (ru == nullptr || rv == nullptr) return false;
  const bool u_shorter = ru->entries.size() <= rv->entries.size();
  const VertexId other = u_shorter ? e.v : e.u;
  for (const Entry& x : (u_shorter ? ru : rv)->entries) {
    const std::uint64_t shared = masks_[x.edge] & levels;
    if (shared == 0 || x.neighbor == other) continue;
    if ((shared & MaskOf(other, x.neighbor)) != 0) return true;
  }
  return false;
}

template <typename Visit>
void RandomOrderTriangleCounter::LevelStore::ForEachOracleNeighbor(
    const Edge& e, Visit visit) const {
  const Row* ru = FindRow(e.u);
  const Row* rv = FindRow(e.v);
  if (ru == nullptr || rv == nullptr) return;
  const bool u_smaller = ru->oracle_degree <= rv->oracle_degree;
  const VertexId other = u_smaller ? e.v : e.u;
  for (const Entry& x : (u_smaller ? ru : rv)->entries) {
    if ((masks_[x.edge] & top_bit_) == 0 || x.neighbor == other) continue;
    if ((MaskOf(other, x.neighbor) & top_bit_) != 0 && !visit(x.neighbor)) {
      return;
    }
  }
}

std::size_t RandomOrderTriangleCounter::LevelStore::level_links() const {
  std::size_t links = 0;
  for (const std::uint64_t mask : masks_) {
    links += static_cast<std::size_t>(std::popcount(mask));
  }
  return links;
}

int RandomOrderTriangleCounter::NumLevels(double t_guess) {
  const double log_sqrt_t =
      std::ceil(std::log2(std::max(1.0, std::sqrt(t_guess))));
  return 1 + static_cast<int>(std::min(log_sqrt_t, 2.0 * kMaxLevels));
}

RandomOrderTriangleCounter::RandomOrderTriangleCounter(const Params& params)
    : params_(params) {
  CHECK_GE(params.base.t_guess, 1.0);
  CHECK_GT(params.base.epsilon, 0.0);
  CHECK_GE(params.num_vertices, 1u);

  num_levels_ = NumLevels(params.base.t_guess);
  CHECK_LE(num_levels_, kMaxLevels)
      << "random-order: t_guess " << params.base.t_guess
      << " gives more levels than a level mask holds";
  const double sqrt_t = std::sqrt(params.base.t_guess);

  const double eps = params.base.epsilon;
  const double log_n = std::log2(static_cast<double>(params.num_vertices) + 2.0);
  const double cv = params.level_rate > 0.0
                        ? params.level_rate
                        : params.base.c / (eps * eps) * log_n;

  std::uint64_t hash_seed = params.base.seed ^ 0x524f54ULL;  // "ROT"
  levels_.reserve(static_cast<std::size_t>(num_levels_));
  for (int i = 0; i < num_levels_; ++i) {
    const double pi = std::min(1.0, cv / std::pow(2.0, i));
    const double qi = std::min(1.0, std::pow(2.0, i) / sqrt_t);
    levels_.emplace_back(pi, qi, KWiseHash(/*k=*/8, SplitMix64(hash_seed)));
    if (pi >= 1.0) saturated_ |= std::uint64_t{1} << i;
  }
  // The top level serves as the oracle O; it must span the entire stream.
  levels_.back().q = 1.0;
  const std::uint64_t top_bit = std::uint64_t{1} << (num_levels_ - 1);
  all_levels_ = top_bit | (top_bit - 1);
  store_ = LevelStore(top_bit);
  p_oracle_ = levels_.back().p;
  heavy_cut_ = p_oracle_ * sqrt_t;

  r_ = params.prefix_rate > 0.0
           ? std::min(1.0, params.prefix_rate)
           : std::min(1.0, params.base.c / (eps * sqrt_t));

  // Hash coefficients (8 per level) live for the whole run.
  space_.SetBaseline(static_cast<std::size_t>(num_levels_) * 8);
  SetSpace();
}

// Space (words): 2 per stored edge of each level (Thm 2.1's per-level
// contract, so 2 per set mask bit), of S, C and P, plus the hash-coefficient
// baseline. Every component only grows, so the peak is the current total
// and its breakdown the current one.
void RandomOrderTriangleCounter::SetSpace() {
  space_.SetComponent("levels", 2 * store_.level_links());
  space_.SetComponent("rough_s", 2 * s_graph_.links());
  space_.SetComponent("rough_c", 2 * c_edges_.size());
  space_.SetComponent("candidates_p", 2 * p_edges_.size());
}

std::size_t RandomOrderTriangleCounter::AuditSpace() const {
  // Walk of the real containers, mirroring the accounting contract: 2 words
  // per stored (edge, level) pair and per S, C and P edge, plus the
  // hash-coefficient baseline.
  return static_cast<std::size_t>(num_levels_) * 8 +
         2 * (store_.level_links() + s_graph_.links() + c_edges_.size() +
              p_edges_.size());
}

void RandomOrderTriangleCounter::SetPrefixes(std::size_t stream_length) {
  stream_length_ = stream_length;
  for (Level& level : levels_) {
    level.prefix_edges = static_cast<std::size_t>(
        std::ceil(level.q * static_cast<double>(stream_length)));
  }
  s_prefix_edges_ = static_cast<std::size_t>(
      std::ceil(r_ * static_cast<double>(stream_length)));
}

void RandomOrderTriangleCounter::StartPass(int pass,
                                           std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  SetPrefixes(stream_length);
}

std::uint64_t RandomOrderTriangleCounter::OpenLevels(
    std::size_t position) const {
  std::uint64_t open = 0;
  for (int i = 0; i < num_levels_; ++i) {
    if (position < levels_[static_cast<std::size_t>(i)].prefix_edges) {
      open |= std::uint64_t{1} << i;
    }
  }
  return open;
}

std::uint64_t RandomOrderTriangleCounter::VMask(VertexId v,
                                              std::uint64_t levels) const {
  std::uint64_t in_v = levels & saturated_;
  for (std::uint64_t sampled = levels & ~saturated_; sampled != 0;
       sampled &= sampled - 1) {
    const int i = std::countr_zero(sampled);
    const Level& level = levels_[static_cast<std::size_t>(i)];
    if (level.vertex_hash.ToUnit(v) < level.p) in_v |= std::uint64_t{1} << i;
  }
  return in_v;
}

void RandomOrderTriangleCounter::ProcessEdge(int pass, const Edge& e,
                                             std::size_t position) {
  (void)pass;
  // Levels: e enters P if it closes a triangle of some level whose prefix
  // has ended, and is stored in the open levels whose V_i holds an endpoint.
  const std::uint64_t open = OpenLevels(position);
  const std::uint64_t ended = all_levels_ & ~open;
  if (ended != 0 && !p_set_.contains(e.Key()) &&
      store_.ClosesTriangle(e, ended)) {
    p_set_.insert(e.Key());
    p_edges_.push_back(e);
    space_.Charge("candidates_p", 2);
  }
  std::uint64_t mask = open & saturated_;
  if (const std::uint64_t sampled = open & ~saturated_; sampled != 0) {
    auto in_v = [&](VertexId v) {
      const LevelStore::Row* row = store_.FindRow(v);
      return row != nullptr ? row->in_v : VMask(v, sampled);
    };
    mask |= sampled & (in_v(e.u) | in_v(e.v));
  }
  if (mask != 0 &&
      store_.Insert(e, position, mask,
                    [this](VertexId v) { return VMask(v, all_levels_); })) {
    space_.Charge("levels", 2 * static_cast<std::size_t>(std::popcount(mask)));
  }

  // Rough estimator: store the S prefix; later edges enter C if they close a
  // wedge of S (S is complete once position >= s_prefix_edges_).
  if (position < s_prefix_edges_) {
    s_graph_.Link(e);
    space_.Charge("rough_s", 2);
  } else if (s_graph_.ClosesTriangle(e) && c_set_.insert(e.Key())) {
    c_edges_.push_back(e);
    space_.Charge("rough_c", 2);
  }
}

std::uint64_t RandomOrderTriangleCounter::OracleTriangleCount(
    const Edge& e) const {
  if (const std::uint64_t* hit = oracle_cache_.find(e.Key())) return *hit;
  std::uint64_t count = 0;
  store_.ForEachOracleNeighbor(e, [&count](VertexId) {
    ++count;
    return true;
  });
  oracle_cache_[e.Key()] = count;
  return count;
}

bool RandomOrderTriangleCounter::IsHeavy(const Edge& e) const {
  return static_cast<double>(OracleTriangleCount(e)) >= heavy_cut_;
}

double RandomOrderTriangleCounter::TermLight() const {
  // (1/3r²)·Σ_{e ∈ C, light} t_e^{S_L}: for each light C edge, count common
  // S-neighbors reachable through two *light* S edges.
  double sum = 0.0;
  for (const Edge& e : c_edges_) {
    if (IsHeavy(e)) continue;
    s_graph_.ForEachCommonNeighbor(e, [&](VertexId w) {
      if (!IsHeavy(Edge(e.u, w)) && !IsHeavy(Edge(e.v, w))) sum += 1.0;
      return true;
    });
  }
  return sum / (3.0 * r_ * r_);
}

double RandomOrderTriangleCounter::TermHeavy() {
  // (1/p)·Σ_{e ∈ P, heavy} Σ over oracle triangles of e, weighted by
  // 1/(1 + #heavy among the other two edges). P in stream order, oracle
  // neighbours in row order: the summation order is part of the result.
  double sum = 0.0;
  for (const Edge& e : p_edges_) {
    if (!IsHeavy(e)) continue;
    ++diagnostics_.oracle_heavy_in_p;
    store_.ForEachOracleNeighbor(e, [&](VertexId w) {
      const int other_heavy =
          (IsHeavy(Edge(e.u, w)) ? 1 : 0) + (IsHeavy(Edge(e.v, w)) ? 1 : 0);
      sum += 1.0 / (1.0 + other_heavy);
      return true;
    });
  }
  return sum / p_oracle_;
}

void RandomOrderTriangleCounter::EndPass(int pass) {
  CHECK_EQ(pass, 0);
  // Complete C with the S-internal candidates: any S edge closing a wedge of
  // S belongs in C (its t_e^S counts triangles regardless of arrival order
  // inside the prefix).
  s_graph_.ForEachEdge([this](const Edge& e) {
    if (s_graph_.ClosesTriangle(e) && c_set_.insert(e.Key())) {
      c_edges_.push_back(e);
      space_.Charge("rough_c", 2);
    }
  });

  diagnostics_.candidate_heavy_edges = p_edges_.size();
  diagnostics_.rough_set_size = c_edges_.size();
  diagnostics_.light_term = TermLight();
  diagnostics_.heavy_term = TermHeavy();

  result_.value = diagnostics_.light_term + diagnostics_.heavy_term;
  result_.space_words = space_.Peak();
}

// randtri/3: the config fingerprint, the stream length, the level store's
// edges in arrival order (endpoints, position, mask), S's rows, C and P in
// arrival order — length-prefixed and followed by its CRC-32, so that
// damage the structural checks cannot see (a flipped stream length, a
// vertex flipped to another valid one) is refused too. Rows, edge sets,
// prefixes and space are rebuilt from these on restore.
bool RandomOrderTriangleCounter::SaveState(StateWriter& w) const {
  StateWriter body;
  body.U32(params_.num_vertices);
  body.I64(num_levels_);
  body.Double(p_oracle_);
  body.Double(heavy_cut_);
  body.Double(r_);
  body.Double(params_.level_rate);
  body.Double(params_.prefix_rate);
  body.Double(params_.base.epsilon);
  body.Double(params_.base.c);
  body.Double(params_.base.t_guess);
  body.U64(params_.base.seed);

  body.Size(stream_length_);
  const std::vector<LevelStore::Stored>& stored = store_.stored();
  body.Size(stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i) {
    body.U32(stored[i].edge.u);
    body.U32(stored[i].edge.v);
    body.U64(stored[i].position);
    body.U64(store_.masks()[i]);
  }
  s_graph_.Save(body);
  body.Vec(c_edges_);
  body.Vec(p_edges_);
  w.Str(body.str());
  w.U32(Crc32(body.str()));
  return true;
}

bool RandomOrderTriangleCounter::RestoreState(StateReader& r) {
  const std::string_view blob = r.Bytes(r.Size());
  if (r.U32() != Crc32(blob) || !r.ok()) return r.Fail();
  StateReader b(blob);
  if (b.U32() != params_.num_vertices || b.I64() != num_levels_ ||
      b.Double() != p_oracle_ || b.Double() != heavy_cut_ ||
      b.Double() != r_ || b.Double() != params_.level_rate ||
      b.Double() != params_.prefix_rate ||
      b.Double() != params_.base.epsilon || b.Double() != params_.base.c ||
      b.Double() != params_.base.t_guess || b.U64() != params_.base.seed) {
    return r.Fail();
  }
  const std::size_t stream_length = b.Size();
  const VertexId n = params_.num_vertices;
  // The prefixes are needed to check each stored edge's mask, so they are
  // computed on a copy and take effect only once everything validates.
  RandomOrderTriangleCounter fresh(params_);
  fresh.SetPrefixes(stream_length);

  // Stored edges: canonical, distinct, in strictly increasing positions,
  // each with exactly the mask its arrival gave it (open levels whose V_i
  // holds an endpoint, never empty).
  const std::size_t num_stored = b.Size();
  if (!b.ok() || num_stored > b.Remaining() / 24) return r.Fail();
  auto in_v = [&fresh](VertexId v) {
    return fresh.VMask(v, fresh.all_levels_);
  };
  for (std::size_t i = 0; i < num_stored; ++i) {
    const VertexId u = b.U32();
    const VertexId v = b.U32();
    const std::uint64_t position = b.U64();
    const std::uint64_t mask = b.U64();
    if (!b.ok() || u >= v || v >= n || position >= stream_length ||
        (i > 0 && position <= fresh.store_.stored().back().position) ||
        mask == 0 ||
        mask != (fresh.OpenLevels(position) & (in_v(u) | in_v(v))) ||
        !fresh.store_.Insert(Edge(u, v), position, mask, in_v)) {
      return r.Fail();
    }
  }
  std::vector<Edge> c_edges, p_edges;
  if (!fresh.s_graph_.Restore(b, n) || !b.Vec(&c_edges) || !b.Vec(&p_edges) ||
      !b.AtEnd()) {
    return r.Fail();
  }
  // C and P hold canonical edges, each once.
  auto key_set = [n](const std::vector<Edge>& edges, FlatSet64* set) {
    for (const Edge& e : edges) {
      if (e.u >= e.v || e.v >= n || !set->insert(e.Key())) return false;
    }
    return true;
  };
  if (!key_set(c_edges, &fresh.c_set_) || !key_set(p_edges, &fresh.p_set_)) {
    return r.Fail();
  }
  fresh.c_edges_ = std::move(c_edges);
  fresh.p_edges_ = std::move(p_edges);
  fresh.SetSpace();
  *this = std::move(fresh);
  return true;
}

Estimate CountTrianglesRandomOrder(
    const EdgeStream& stream,
    const RandomOrderTriangleCounter::Params& params) {
  RandomOrderTriangleCounter counter(params);
  RunEdgeStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
