#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/adj_f2_counter.h"
#include "core/adj_l2_counter.h"
#include "core/arb_f2_counter.h"
#include "core/turnstile_f2.h"
#include "gen/generators.h"
#include "graph/exact.h"
#include "graph/graph.h"
#include "hash/kwise.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "stream/dynamic/turnstile.h"
#include "stream/order.h"
#include "stream/window/window.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace cyclestream {
namespace {

// Dense random graph where T = Θ(n²·d⁴) dominates n² — the regime of
// Theorems 4.3 / 5.7.
Graph DenseGraph(VertexId n, double p, std::uint64_t seed) {
  Rng rng(seed);
  return Graph(ErdosRenyiGnp(n, p, rng));
}

TEST(AdjF2CounterTest, F2EstimateMatchesExactWedgeVector) {
  const Graph g = DenseGraph(300, 0.15, 1);
  const WedgeVector x = ComputeWedgeVector(g);
  const double f2 = static_cast<double>(WedgeVectorF2(x));

  AdjF2FourCycleCounter::Params params;
  params.base.epsilon = 0.2;
  params.base.t_guess = static_cast<double>(CountFourCyclesFromWedges(x));
  params.base.seed = 2;
  params.num_vertices = g.num_vertices();
  params.copies_per_group = 128;
  Rng rng(3);
  const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
  AdjF2FourCycleCounter counter(params);
  RunAdjacencyStream(counter, stream);
  EXPECT_NEAR(counter.F2Estimate(), f2, 0.2 * f2);
}

TEST(AdjF2CounterTest, F1EstimateMatchesExactCappedF1) {
  const Graph g = DenseGraph(250, 0.12, 4);
  const WedgeVector x = ComputeWedgeVector(g);
  AdjF2FourCycleCounter::Params params;
  params.base.epsilon = 0.25;  // cap = 4.
  params.base.t_guess = std::max<double>(1.0, CountFourCyclesFromWedges(x));
  params.base.seed = 5;
  params.num_vertices = g.num_vertices();
  params.copies_per_group = 8;
  params.pair_rate = 1.0;  // Exhaustive pairs: F1 must be exact.
  Rng rng(6);
  const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
  AdjF2FourCycleCounter counter(params);
  RunAdjacencyStream(counter, stream);
  const double exact_f1 = static_cast<double>(WedgeVectorCappedF1(x, 4));
  EXPECT_NEAR(counter.F1Estimate(), exact_f1, 1e-6);
}

TEST(AdjF2CounterTest, EndToEndOnDenseGraph) {
  const Graph g = DenseGraph(220, 0.25, 7);
  const double exact = static_cast<double>(CountFourCycles(g));
  std::vector<double> estimates;
  for (int t = 0; t < 7; ++t) {
    AdjF2FourCycleCounter::Params params;
    params.base.epsilon = 0.1;
    params.base.t_guess = exact;
    params.base.seed = 100 + t;
    params.num_vertices = g.num_vertices();
    params.copies_per_group = 96;
    Rng rng(8 + t);
    const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
    estimates.push_back(CountFourCyclesAdjF2(stream, params).value);
  }
  EXPECT_NEAR(Summarize(estimates).median, exact, 0.2 * exact);
}

TEST(AdjF2CounterTest, SubsampledF1IsUnbiasedEnough) {
  const Graph g = DenseGraph(250, 0.2, 9);
  const WedgeVector x = ComputeWedgeVector(g);
  const double exact_f1 = static_cast<double>(WedgeVectorCappedF1(x, 10));
  std::vector<double> estimates;
  for (int t = 0; t < 9; ++t) {
    AdjF2FourCycleCounter::Params params;
    params.base.epsilon = 0.1;  // cap = 10.
    params.base.t_guess = 1e9;  // Irrelevant here.
    params.base.seed = 200 + t;
    params.num_vertices = g.num_vertices();
    params.copies_per_group = 4;
    params.pair_rate = 0.3;
    Rng rng(10 + t);
    const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
    AdjF2FourCycleCounter counter(params);
    RunAdjacencyStream(counter, stream);
    estimates.push_back(counter.F1Estimate());
  }
  EXPECT_NEAR(Summarize(estimates).median, exact_f1, 0.1 * exact_f1);
}

// Naive test-side reference for AdjF2FourCycleCounter's F₂ part: ±1 signs
// from the scalar hash as copy-minor bytes, and per list the three C-length
// `double` accumulator sweeps the counter ran before its bit-sliced sums.
// Requires explicit copies_per_group and groups so C needs no derivation.
class AdjF2Oracle {
 public:
  explicit AdjF2Oracle(const AdjF2FourCycleCounter::Params& params)
      : groups_(static_cast<std::size_t>(params.groups)),
        c_(static_cast<std::size_t>(params.copies_per_group * params.groups)),
        n_(params.num_vertices) {
    // The counter's seed chain: beta's seed comes off the splitmix chain
    // before alpha's, copy by copy.
    std::uint64_t seed = params.base.seed ^ 0x41444a46ULL;
    alpha_.resize(n_ * c_);
    beta_.resize(n_ * c_);
    for (std::size_t i = 0; i < c_; ++i) {
      const KWiseHash beta_hash(4, SplitMix64(seed));
      const KWiseHash alpha_hash(4, SplitMix64(seed));
      for (std::size_t v = 0; v < n_; ++v) {
        alpha_[v * c_ + i] = static_cast<signed char>(alpha_hash.Sign(v));
        beta_[v * c_ + i] = static_cast<signed char>(beta_hash.Sign(v));
      }
    }
    z_.assign(c_, 0.0);
  }

  void ProcessList(const AdjacencyList& list) {
    std::vector<double> a(c_, 0.0), b(c_, 0.0), cc(c_, 0.0);
    for (VertexId u : list.neighbors) {
      const signed char* au = alpha_.data() + static_cast<std::size_t>(u) * c_;
      const signed char* bu = beta_.data() + static_cast<std::size_t>(u) * c_;
      for (std::size_t i = 0; i < c_; ++i) a[i] += static_cast<double>(au[i]);
      for (std::size_t i = 0; i < c_; ++i) b[i] += static_cast<double>(bu[i]);
      for (std::size_t i = 0; i < c_; ++i) {
        cc[i] += static_cast<double>(au[i]) * static_cast<double>(bu[i]);
      }
    }
    for (std::size_t i = 0; i < c_; ++i) z_[i] += (a[i] * b[i] - cc[i]) / 2.0;
  }

  double F2Estimate() const {
    std::vector<double> squares(c_);
    for (std::size_t i = 0; i < c_; ++i) squares[i] = 2.0 * z_[i] * z_[i];
    return MedianOfMeans(squares, groups_);
  }

 private:
  std::size_t groups_;
  std::size_t c_;
  std::size_t n_;
  std::vector<signed char> alpha_, beta_;
  std::vector<double> z_;
};

// List lengths around the 16-neighbour Harley–Seal blocks and the plane
// boundaries (16, 256), at copy counts around the 64-copy words, each run
// alone and then all in one stream: F2Estimate must equal the accumulator
// oracle bit for bit.
TEST(AdjF2CounterTest, BitSlicedListSumsMatchReference) {
  constexpr VertexId kN = 1200;
  const std::size_t lengths[] = {0, 1, 15, 16, 17, 31, 255, 256, 257, 1000};
  std::vector<VertexId> ids(kN);
  for (VertexId v = 0; v < kN; ++v) ids[v] = v;
  Rng rng(90);
  AdjacencyStream stream;
  for (const std::size_t length : lengths) {
    rng.Shuffle(ids);
    AdjacencyList list;
    list.vertex = ids[length];
    list.neighbors.assign(ids.begin(), ids.begin() + length);
    stream.push_back(std::move(list));
  }
  for (const int copies : {1, 63, 64, 65, 450}) {
    AdjF2FourCycleCounter::Params params;
    params.base.epsilon = 0.3;
    params.base.t_guess = 1e6;
    params.base.seed = 91 + copies;
    params.num_vertices = kN;
    params.copies_per_group = copies;
    params.groups = 1;
    params.pair_rate = 1e-9;
    const AdjF2Oracle fresh(params);
    const auto run = [&](std::span<const AdjacencyList> lists) {
      AdjF2FourCycleCounter counter(params);
      AdjF2Oracle oracle = fresh;
      counter.StartPass(0, lists.size());
      for (std::size_t i = 0; i < lists.size(); ++i) {
        counter.ProcessList(0, lists[i], i);
        oracle.ProcessList(lists[i]);
      }
      counter.EndPass(0);
      EXPECT_EQ(counter.F2Estimate(), oracle.F2Estimate())
          << "C=" << copies << " lists=" << lists.size()
          << " first length=" << lists[0].neighbors.size();
    };
    for (std::size_t i = 0; i < stream.size(); ++i) run({&stream[i], 1});
    run(stream);
  }
}

// The F₁(z) sample is capped at 4M pairs whatever the rate: at n = 3000 a
// rate of 0.9 would otherwise ask for about 4.05M of the 4.5M pairs.
TEST(AdjF2CounterTest, PairSampleIsCappedBelowRateOne) {
  AdjF2FourCycleCounter::Params params;
  params.base.epsilon = 0.3;
  params.base.t_guess = 1e6;
  params.base.seed = 95;
  params.num_vertices = 3000;
  params.copies_per_group = 1;
  params.groups = 1;
  params.pair_rate = 0.9;
  AdjF2FourCycleCounter counter(params);
  counter.StartPass(0, 0);
  counter.EndPass(0);
  const std::size_t pairs = counter.space_tracker()->Component("pairs") / 5;
  EXPECT_EQ(pairs, 4000000u);
  EXPECT_EQ(counter.F1Estimate(), 0.0);
}

TEST(ArbF2CounterTest, MatchesAdjacencyVariantSemantics) {
  // Same reduction, arbitrary order: F2 estimate should match the exact F2.
  const Graph g = DenseGraph(200, 0.2, 11);
  const WedgeVector x = ComputeWedgeVector(g);
  const double f2 = static_cast<double>(WedgeVectorF2(x));
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.15;
  params.base.seed = 12;
  params.num_vertices = g.num_vertices();
  params.copies_per_group = 128;
  Rng rng(13);
  EdgeStream stream = g.edges();
  rng.Shuffle(stream);
  ArbF2FourCycleCounter counter(params);
  RunEdgeStream(counter, stream);
  EXPECT_NEAR(counter.F2Estimate(), f2, 0.2 * f2);
}

TEST(ArbF2CounterTest, DynamicDeletionsCancelExactly) {
  // Insert a dense graph, then delete a planted block: the counters must
  // equal a fresh run on the residual graph (same seeds).
  const Graph g = DenseGraph(150, 0.2, 14);
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.2;
  params.base.seed = 15;
  params.num_vertices = g.num_vertices();
  params.copies_per_group = 32;

  ArbF2FourCycleCounter dynamic(params);
  for (const Edge& e : g.edges()) dynamic.Insert(e);
  // Delete every edge incident to vertices < 30.
  std::vector<Edge> kept;
  for (const Edge& e : g.edges()) {
    if (e.u < 30 || e.v < 30) {
      dynamic.Delete(e);
    } else {
      kept.push_back(e);
    }
  }
  ArbF2FourCycleCounter fresh(params);
  for (const Edge& e : kept) fresh.Insert(e);
  EXPECT_NEAR(dynamic.F2Estimate(), fresh.F2Estimate(), 1e-6);
}

TEST(ArbF2CounterTest, EndToEndInRegime) {
  const Graph g = DenseGraph(180, 0.3, 16);
  const double exact = static_cast<double>(CountFourCycles(g));
  std::vector<double> estimates;
  for (int t = 0; t < 7; ++t) {
    ArbF2FourCycleCounter::Params params;
    params.base.epsilon = 0.1;
    params.base.seed = 300 + t;
    params.num_vertices = g.num_vertices();
    params.copies_per_group = 64;
    Rng rng(17 + t);
    EdgeStream stream = g.edges();
    rng.Shuffle(stream);
    estimates.push_back(CountFourCyclesArbF2(stream, params).value);
  }
  // T̂ = F2/4 carries the +F1(z)/4 structural bias; in this dense regime
  // F1 ≲ a few percent of 4T.
  EXPECT_NEAR(Summarize(estimates).median, exact, 0.2 * exact);
}

// Naive test-side reference for ArbF2FourCycleCounter: the paper's A, B
// and C as three copy-minor double arrays (X[v·C + c]) and the signed
// degree D as one array (D[v]), updated with separate sweeps, estimated
// copy-outer both from C (the paper's form) and from D (the counter's),
// and saved slot by slot in the arbf2/3 layout, A|B|D per vertex. Requires
// explicit copies_per_group and groups so C needs no derivation.
class ArbF2Oracle {
 public:
  explicit ArbF2Oracle(const ArbF2FourCycleCounter::Params& params)
      : params_(params),
        c_(static_cast<std::size_t>(params.copies_per_group * params.groups)),
        n_(params.num_vertices) {
    // The counter's seed chain: beta's seed comes off the splitmix chain
    // before alpha's, copy by copy.
    std::uint64_t seed = params.base.seed ^ 0x41524246ULL;
    std::vector<std::uint64_t> alpha_seeds(c_), beta_seeds(c_);
    for (std::size_t i = 0; i < c_; ++i) {
      beta_seeds[i] = SplitMix64(seed);
      alpha_seeds[i] = SplitMix64(seed);
    }
    // Signs straight from the scalar reference hash, one per (vertex,
    // copy), independent of the bank's sign tables.
    alpha_.resize(n_ * c_);
    beta_.resize(n_ * c_);
    for (std::size_t i = 0; i < c_; ++i) {
      const KWiseHash alpha_hash(4, alpha_seeds[i]);
      const KWiseHash beta_hash(4, beta_seeds[i]);
      for (std::size_t v = 0; v < n_; ++v) {
        alpha_[v * c_ + i] = static_cast<signed char>(alpha_hash.Sign(v));
        beta_[v * c_ + i] = static_cast<signed char>(beta_hash.Sign(v));
      }
    }
    a_.assign(n_ * c_, 0.0);
    b_.assign(n_ * c_, 0.0);
    cc_.assign(n_ * c_, 0.0);
    d_.assign(n_, 0.0);
  }

  std::size_t copies() const { return c_; }
  double alpha(std::size_t v, std::size_t i) const {
    return alpha_[v * c_ + i];
  }
  double& a(std::size_t v, std::size_t i) { return a_[v * c_ + i]; }
  double d(std::size_t v) const { return d_[v]; }

  // Three separate C-length sweeps, A, B and C, and D at u, then at v.
  void Apply(const Edge& e, double sign) {
    const auto sweeps = [&](std::size_t center, std::size_t neighbor) {
      const std::size_t x = center * c_, y = neighbor * c_;
      for (std::size_t i = 0; i < c_; ++i) a_[x + i] += sign * alpha_[y + i];
      for (std::size_t i = 0; i < c_; ++i) b_[x + i] += sign * beta_[y + i];
      for (std::size_t i = 0; i < c_; ++i) {
        cc_[x + i] += sign * static_cast<double>(alpha_[y + i]) *
                      static_cast<double>(beta_[y + i]);
      }
      d_[center] += sign;
    };
    sweeps(e.u, e.v);
    sweeps(e.v, e.u);
  }

  void Rescale(double factor) {
    for (std::vector<double>* x : {&a_, &b_, &cc_, &d_}) {
      for (double& slot : *x) slot *= factor;
    }
  }

  // Copy i's Σ_t C_t, and its Σ_t D_t·α_t·β_t, which equals it.
  double SumC(std::size_t i) const {
    double sum = 0.0;
    for (std::size_t t = 0; t < n_; ++t) sum += cc_[t * c_ + i];
    return sum;
  }
  double SumD(std::size_t i) const {
    double sum = 0.0;
    for (std::size_t t = 0; t < n_; ++t) sum += d_[t] * AlphaBeta(t, i);
    return sum;
  }

  // The estimate the counter computes, with row t's term
  // (A·B − D·α_t·β_t)/2.
  double F2Estimate() const {
    return Estimate([this](std::size_t t, std::size_t i) {
      return d_[t] * AlphaBeta(t, i);
    });
  }
  // The paper's estimate, with row t's term (A·B − C)/2: the same sum,
  // summed in another grouping, so equal wherever every partial sum is an
  // exact double.
  double F2EstimateFromC() const {
    return Estimate(
        [this](std::size_t t, std::size_t i) { return cc_[t * c_ + i]; });
  }

  // The arbf2/3 wire layout, field by field: the config, the width tag,
  // the slot count, then each vertex's A and B segments and its D in turn,
  // every slot as a little-endian integer or double. `tag` < 0 picks the
  // narrowest width that holds every slot exactly; a forced tag converts
  // each slot to that width, so it is forced only where every slot is in
  // the width's range.
  std::string Save(int tag = -1) const {
    if (tag < 0) {
      tag = 0;
      for (const std::vector<double>* x : {&a_, &b_, &d_}) {
        for (const double slot : *x) {
          if (slot != std::trunc(slot) || std::fabs(slot) > 2147483647.0 ||
              (slot == 0.0 && std::signbit(slot))) {
            tag = 2;
          } else if (std::fabs(slot) > 32767.0) {
            tag = std::max(tag, 1);
          }
        }
      }
    }
    StateWriter w;
    w.U32(params_.num_vertices);
    w.Size(c_);
    w.I64(params_.groups);
    w.Double(params_.base.epsilon);
    w.U64(params_.base.seed);
    w.Double(params_.f1_correction);
    w.U8(static_cast<std::uint8_t>(tag));
    w.U64(ArbF2FourCycleCounter::SlotCount(n_, c_));
    const auto put = [&w, tag](double slot) {
      if (tag == 0) {
        const auto bits =
            static_cast<std::uint16_t>(static_cast<std::int16_t>(slot));
        w.U8(static_cast<std::uint8_t>(bits & 0xff));
        w.U8(static_cast<std::uint8_t>(bits >> 8));
      } else if (tag == 1) {
        w.U32(static_cast<std::uint32_t>(static_cast<std::int32_t>(slot)));
      } else {
        w.Double(slot);
      }
    };
    for (std::size_t v = 0; v < n_; ++v) {
      for (const std::vector<double>* x : {&a_, &b_}) {
        for (std::size_t i = 0; i < c_; ++i) put((*x)[v * c_ + i]);
      }
      put(d_[v]);
    }
    return w.Take();
  }

 private:
  double AlphaBeta(std::size_t t, std::size_t i) const {
    return static_cast<double>(alpha_[t * c_ + i]) *
           static_cast<double>(beta_[t * c_ + i]);
  }

  // MedianOfMeans over copies of 2·Z², Z = Σ_t (A·B − correction(t, i))/2
  // summed in vertex order.
  template <typename Correction>
  double Estimate(Correction correction) const {
    std::vector<double> squares(c_);
    for (std::size_t i = 0; i < c_; ++i) {
      double z = 0.0;
      for (std::size_t t = 0; t < n_; ++t) {
        z += (a_[t * c_ + i] * b_[t * c_ + i] - correction(t, i)) / 2.0;
      }
      squares[i] = 2.0 * z * z;
    }
    return MedianOfMeans(squares, static_cast<std::size_t>(params_.groups));
  }

  ArbF2FourCycleCounter::Params params_;
  std::size_t c_;
  std::size_t n_;
  std::vector<signed char> alpha_, beta_;
  std::vector<double> a_, b_, cc_, d_;
};

ArbF2FourCycleCounter::Params SmallArbF2Params(VertexId n) {
  ArbF2FourCycleCounter::Params params;
  params.base.epsilon = 0.3;
  params.base.seed = 61;
  params.num_vertices = n;
  params.copies_per_group = 8;
  params.groups = 3;
  return params;
}

template <typename Alg>
std::string SaveBytes(const Alg& alg) {
  StateWriter w;
  EXPECT_TRUE(alg.SaveState(w));
  return w.Take();
}

bool Restore(ArbF2FourCycleCounter& counter, const std::string& bytes) {
  StateReader r(bytes);
  return counter.RestoreState(r) && r.AtEnd();
}

// The counter's estimate equals the oracle's D form bit for bit, and so
// does the paper's C form wherever every partial sum is an exact double.
void ExpectEstimateMatches(double estimate, const ArbF2Oracle& oracle) {
  EXPECT_EQ(estimate, oracle.F2Estimate());
  EXPECT_EQ(estimate, oracle.F2EstimateFromC());
}

// Past that regime (values with more than 53 significant bits between
// them, as a 2^−29 or 2^−30 scale leaves) the two forms round apart: the
// counter still equals the D form bit for bit, and the C form to within a
// relative 2^−24. The states tested there are near-cancellations, Z about
// 2^−25 from terms of order one, where a term's 2^−53 rounding moves F₂
// by a relative 2^−28 or so (3.5e−9 the largest seen).
void ExpectRoundedEstimateMatches(double estimate, const ArbF2Oracle& oracle) {
  EXPECT_EQ(estimate, oracle.F2Estimate());
  const double c_form = oracle.F2EstimateFromC();
  EXPECT_NEAR(estimate, c_form, std::ldexp(std::fabs(c_form), -24));
}

// The arbf2/3 snapshot is the rows at their narrowest width: pinned
// against the test-side encoding, both after a finished pass and mid-pass.
TEST(ArbF2CounterTest, SnapshotWireLayoutIsPinned) {
  Rng rng(62);
  const EdgeList graph = ErdosRenyiGnm(30, 90, rng);
  const auto params = SmallArbF2Params(30);
  ArbF2Oracle oracle(params);
  ArbF2FourCycleCounter counter(params);
  counter.StartPass(0, graph.num_edges());
  counter.ProcessEdgeBlock(0, graph.edges(), 0);
  for (const Edge& e : graph.edges()) oracle.Apply(e, +1.0);
  EXPECT_EQ(SaveBytes(counter), oracle.Save()) << "mid-pass";
  counter.EndPass(0);
  EXPECT_EQ(SaveBytes(counter), oracle.Save()) << "after EndPass";
  ExpectEstimateMatches(counter.F2Estimate(), oracle);
  EXPECT_FALSE(counter.double_slots());
}

// A slot at 2^31 − 2 still loads as int32; the updates that could carry it
// past 2^31 − 1 switch the counter to double slots first, and the result
// stays bit-identical to the double oracle — per edge and per block.
TEST(ArbF2CounterTest, SlotsSwitchToDoubleBeforeInt32Overflow) {
  const VertexId n = 20;
  Rng rng(63);
  const EdgeList graph = ErdosRenyiGnm(n, 50, rng);
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  for (const Edge& e : graph.edges()) oracle.Apply(e, +1.0);
  oracle.a(3, 5) = 2147483646.0;  // 2^31 − 2.
  ArbF2FourCycleCounter counter(params);
  ASSERT_TRUE(Restore(counter, oracle.Save()));
  EXPECT_FALSE(counter.double_slots());
  EXPECT_EQ(SaveBytes(counter), oracle.Save());

  // Edges (3, v) with α_v = +1 in copy 5 each raise A_3 of copy 5 by one.
  // Each vertex goes in twice.
  std::vector<Edge> raise;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (VertexId v = 0; v < n; ++v) {
      if (v != 3 && oracle.alpha(v, 5) > 0) raise.emplace_back(3, v);
    }
  }
  ASSERT_GE(raise.size(), 10u);
  counter.Insert(raise[0]);  // The bound reaches 2^31 − 1: still int32.
  oracle.Apply(raise[0], +1.0);
  EXPECT_FALSE(counter.double_slots());
  counter.ProcessEdgeBlock(0, std::span<const Edge>(raise).subspan(1), 0);
  for (std::size_t i = 1; i < raise.size(); ++i) oracle.Apply(raise[i], +1.0);
  EXPECT_TRUE(counter.double_slots());
  ASSERT_GT(oracle.a(3, 5), 2147483647.0);
  counter.EndPass(0);
  ExpectEstimateMatches(counter.F2Estimate(), oracle);
  EXPECT_EQ(SaveBytes(counter), oracle.Save());
}

using SlotWidth = ArbF2FourCycleCounter::SlotWidth;

// `count` edges between `centre` and the vertices whose α in `copy` is +1,
// cycling through them: each raises A_centre of that copy by one, so the
// centre's row alone carries a large slot while each leaf's row takes only
// count / leaves updates.
std::vector<Edge> StarEdges(const ArbF2Oracle& oracle, VertexId n,
                            VertexId centre, std::size_t copy,
                            std::size_t count) {
  std::vector<VertexId> leaves;
  for (VertexId v = 0; v < n; ++v) {
    if (v != centre && oracle.alpha(v, copy) > 0) leaves.push_back(v);
  }
  EXPECT_GE(leaves.size(), 5u);
  std::vector<Edge> edges;
  for (std::size_t k = 0; k < count; ++k) {
    edges.emplace_back(centre, leaves[k % leaves.size()]);
  }
  return edges;
}

// Feeds `edges` to both in 4096-edge blocks (the engine's block size).
void ApplyInBlocks(ArbF2FourCycleCounter& counter, ArbF2Oracle& oracle,
                   const std::vector<Edge>& edges) {
  constexpr std::size_t kBlock = 4096;
  for (std::size_t pos = 0; pos < edges.size(); pos += kBlock) {
    const std::size_t len = std::min(kBlock, edges.size() - pos);
    counter.ProcessEdgeBlock(
        0, std::span<const Edge>(edges.data() + pos, len), pos);
  }
  for (const Edge& e : edges) oracle.Apply(e, +1.0);
}

// `exact_sums` false: the state is past the regime where every partial sum
// is an exact double.
void ExpectMatchesOracle(const ArbF2FourCycleCounter& counter,
                         const ArbF2Oracle& oracle, bool exact_sums = true) {
  if (exact_sums) {
    ExpectEstimateMatches(counter.F2Estimate(), oracle);
  } else {
    ExpectRoundedEstimateMatches(counter.F2Estimate(), oracle);
  }
  EXPECT_EQ(SaveBytes(counter), oracle.Save());
}

// Regrouping Σ_t C_t by the endpoint each α·β term comes from gives, per
// copy, Σ_t C_t = Σ_t D_t·α_t·β_t, where D_t is t's signed degree: +1 per
// inserted and −1 per deleted edge at each endpoint, so a self-loop counts
// twice. Checked on a graph with self-loops, deletions and a deleted
// self-loop that was never inserted; the counter's blob carries that D.
TEST(ArbF2CounterTest, SignedDegreeSlotCarriesTheCBlockSum) {
  const VertexId n = 30;
  Rng rng(83);
  const EdgeList graph = ErdosRenyiGnm(n, 120, rng);
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  ArbF2FourCycleCounter counter(params);
  std::vector<double> degree(n, 0.0);
  const auto apply = [&](const Edge& e, double sign) {
    if (sign > 0) {
      counter.Insert(e);
    } else {
      counter.Delete(e);
    }
    oracle.Apply(e, sign);
    degree[e.u] += sign;
    degree[e.v] += sign;
  };
  for (const Edge& e : graph.edges()) apply(e, +1.0);
  apply(Edge(4, 4), +1.0);
  apply(Edge(9, 9), +1.0);
  for (std::size_t i = 0; i < graph.num_edges(); i += 3) {
    apply(graph.edges()[i], -1.0);
  }
  apply(Edge(9, 9), -1.0);
  apply(Edge(7, 7), -1.0);
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(oracle.d(v), degree[v]) << v;
  bool nonzero = false;
  for (std::size_t i = 0; i < oracle.copies(); ++i) {
    EXPECT_EQ(oracle.SumC(i), oracle.SumD(i)) << "copy " << i;
    nonzero |= oracle.SumC(i) != 0.0;
  }
  EXPECT_TRUE(nonzero);
  ExpectMatchesOracle(counter, oracle);
}

// The star's centre is the highest id, so it is every edge's v endpoint,
// and a self-loop on it takes the last two updates: 32,766 star edges
// leave its bound at the int16 limit's reach, the self-loop carries A to
// 32,768 and the slots to int32.
TEST(ArbF2CounterTest, StarCentrePastInt16WidensToInt32) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  std::size_t copy = 0;
  while (oracle.alpha(centre, copy) < 0) ++copy;
  ASSERT_LT(copy, oracle.copies());
  ArbF2FourCycleCounter counter(params);
  ApplyInBlocks(counter, oracle, StarEdges(oracle, n, centre, copy, 32766));
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt16);
  ExpectMatchesOracle(counter, oracle);

  const Edge loop(centre, centre);
  counter.Insert(loop);
  oracle.Apply(loop, +1.0);
  EXPECT_EQ(oracle.a(centre, copy), 32768.0);
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
  ExpectMatchesOracle(counter, oracle);
}

// Bounds add row by row on a merge: two stars on one centre widen once
// their sum passes 32,767, and not at exactly 32,767; two 20,000-edge
// stars on different centres stay int16, where one global bound (40,000)
// would not.
TEST(ArbF2CounterTest, MergeWidensOnlyWhenOneRowsBoundsSumPastInt16) {
  const VertexId n = 40;
  const auto params = SmallArbF2Params(n);
  const ArbF2Oracle signs(params);
  const auto merged = [&](const std::vector<Edge>& lhs,
                          const std::vector<Edge>& rhs,
                          SlotWidth expected) {
    ArbF2Oracle oracle(params);
    ArbF2FourCycleCounter a(params), b(params);
    ApplyInBlocks(a, oracle, lhs);
    ApplyInBlocks(b, oracle, rhs);
    EXPECT_EQ(a.slot_width(), SlotWidth::kInt16);
    EXPECT_EQ(b.slot_width(), SlotWidth::kInt16);
    ASSERT_TRUE(a.MergeFrom(b));
    EXPECT_EQ(a.slot_width(), expected);
    ExpectMatchesOracle(a, oracle);
  };
  const std::vector<Edge> star0 = StarEdges(signs, n, 0, 0, 20000);
  merged(star0, StarEdges(signs, n, 0, 0, 12767), SlotWidth::kInt16);
  merged(star0, StarEdges(signs, n, 0, 0, 12768), SlotWidth::kInt32);
  merged(star0, StarEdges(signs, n, 1, 0, 20000), SlotWidth::kInt16);
}

// A restored row's bound is its largest |slot|: 32,767 loads as int16 and
// the next raising update widens; 32,768 (either sign) loads as int32.
TEST(ArbF2CounterTest, RestoredSlotLoadsAtTheWidthItNeeds) {
  const VertexId n = 20;
  Rng rng(66);
  const EdgeList graph = ErdosRenyiGnm(n, 50, rng);
  const auto params = SmallArbF2Params(n);
  for (const double slot : {32767.0, 32768.0, -32768.0}) {
    SCOPED_TRACE(slot);
    ArbF2Oracle oracle(params);
    for (const Edge& e : graph.edges()) oracle.Apply(e, +1.0);
    oracle.a(3, 5) = slot;
    ArbF2FourCycleCounter counter(params);
    ASSERT_TRUE(Restore(counter, oracle.Save()));
    EXPECT_EQ(counter.slot_width(), slot == 32767.0 ? SlotWidth::kInt16
                                                    : SlotWidth::kInt32);
    ExpectMatchesOracle(counter, oracle);
    // Raise A_3 of copy 5 by one.
    VertexId v = 0;
    while (v == 3 || oracle.alpha(v, 5) < 0) ++v;
    counter.Insert(Edge(3, v));
    oracle.Apply(Edge(3, v), +1.0);
    EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
    ExpectMatchesOracle(counter, oracle);
  }
}

// The width tag of an arbf2/3 blob follows the six config fields.
constexpr std::size_t kArbF2TagOffset = 4 + 5 * 8;

// A blob at each width restores into a fresh counter at that width, with
// the same estimate, and re-saves to the same bytes. The blob's width is
// the values' narrowest, not the live one's: a rescale by 1/2 keeps the
// int32 slots, and its half-integral values save as double.
TEST(ArbF2CounterTest, SnapshotRoundTripsAtEveryWidth) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  const auto params = SmallArbF2Params(n);
  Rng rng(69);
  const EdgeList graph = ErdosRenyiGnm(n, 150, rng);
  const auto round_trip = [&](const ArbF2FourCycleCounter& live,
                              SlotWidth width) {
    const std::string bytes = SaveBytes(live);
    ASSERT_GT(bytes.size(), kArbF2TagOffset);
    EXPECT_EQ(bytes[kArbF2TagOffset], static_cast<char>(width));
    ArbF2FourCycleCounter restored(params);
    ASSERT_TRUE(Restore(restored, bytes));
    EXPECT_EQ(restored.slot_width(), width);
    EXPECT_EQ(restored.F2Estimate(), live.F2Estimate());
    EXPECT_EQ(SaveBytes(restored), bytes);
  };

  ArbF2Oracle oracle(params);
  std::size_t copy = 0;
  while (oracle.alpha(centre, copy) < 0) ++copy;
  ArbF2FourCycleCounter counter(params);
  ApplyInBlocks(counter, oracle, graph.edges());
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt16);
  round_trip(counter, SlotWidth::kInt16);
  ExpectMatchesOracle(counter, oracle);
  const std::string int16_blob = SaveBytes(counter);

  ApplyInBlocks(counter, oracle, StarEdges(oracle, n, centre, copy, 32768));
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
  round_trip(counter, SlotWidth::kInt32);
  ExpectMatchesOracle(counter, oracle);

  counter.Rescale(0.5);
  oracle.Rescale(0.5);
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
  round_trip(counter, SlotWidth::kDouble);
  ExpectMatchesOracle(counter, oracle);

  // A restore replaces the rescaled state, exponent included.
  ASSERT_TRUE(Restore(counter, int16_blob));
  EXPECT_EQ(SaveBytes(counter), int16_blob);
}

// A rescaled counter whose values are all integers saves them as
// integers: every update goes in twice, so every slot is even and a
// rescale by 1/2 leaves integral values, int16 ones and then, with a
// 32,768-edge star doubled, an int32 one.
TEST(ArbF2CounterTest, ScaledIntegralValuesSaveAsIntegers) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  const auto params = SmallArbF2Params(n);
  Rng rng(82);
  const EdgeList graph = ErdosRenyiGnm(n, 120, rng);
  ArbF2Oracle oracle(params);
  std::size_t copy = 0;
  while (oracle.alpha(centre, copy) < 0) ++copy;
  const auto doubled = [](const std::vector<Edge>& edges) {
    std::vector<Edge> twice = edges;
    twice.insert(twice.end(), edges.begin(), edges.end());
    return twice;
  };
  for (const bool star : {false, true}) {
    SCOPED_TRACE(star ? "with the star" : "graph only");
    ArbF2Oracle expected(params);
    ArbF2FourCycleCounter counter(params);
    ApplyInBlocks(counter, expected, doubled(graph.edges()));
    if (star) {
      ApplyInBlocks(counter, expected,
                    doubled(StarEdges(oracle, n, centre, copy, 32768)));
    }
    counter.Rescale(0.5);
    expected.Rescale(0.5);
    EXPECT_FALSE(counter.double_slots());
    const std::string bytes = SaveBytes(counter);
    EXPECT_EQ(bytes[kArbF2TagOffset],
              static_cast<char>(star ? SlotWidth::kInt32 : SlotWidth::kInt16));
    EXPECT_EQ(bytes, expected.Save());
    ExpectEstimateMatches(counter.F2Estimate(), expected);
  }
}

// Slots never narrow in memory, but the snapshot does: an int32 counter
// whose star was deleted again, and a counter moved to double by a
// rescale past the exponent cap and scaled back, both hold only small
// integers and save as int16. A rescale by one leaves the slots alone.
TEST(ArbF2CounterTest, WiderLiveSlotsThatFitInt16SaveAsInt16) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  std::size_t copy = 0;
  while (oracle.alpha(centre, copy) < 0) ++copy;
  const std::vector<Edge> star = StarEdges(oracle, n, centre, copy, 32768);
  ArbF2FourCycleCounter counter(params);
  ApplyInBlocks(counter, oracle, star);
  ASSERT_EQ(counter.slot_width(), SlotWidth::kInt32);
  for (std::size_t i = 0; i < star.size() - 10; ++i) {
    counter.Delete(star[i]);
    oracle.Apply(star[i], -1.0);
  }
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
  ExpectMatchesOracle(counter, oracle);
  const std::string bytes = SaveBytes(counter);
  EXPECT_EQ(bytes[kArbF2TagOffset], static_cast<char>(SlotWidth::kInt16));
  ArbF2FourCycleCounter restored(params);
  ASSERT_TRUE(Restore(restored, bytes));
  EXPECT_EQ(restored.slot_width(), SlotWidth::kInt16);
  EXPECT_EQ(restored.F2Estimate(), counter.F2Estimate());

  counter.Rescale(1.0);
  EXPECT_EQ(counter.slot_width(), SlotWidth::kInt32);
  EXPECT_EQ(SaveBytes(counter), bytes);
  counter.Rescale(std::ldexp(1.0, -31));
  EXPECT_TRUE(counter.double_slots());
  counter.Rescale(std::ldexp(1.0, 31));
  EXPECT_EQ(SaveBytes(counter), bytes);
}

// RestoreState accepts exactly one encoding per state and refuses every
// other blob without touching the counter: an unknown tag, a wrong slot
// count, a short or long payload, a slot whose magnitude the tagged width
// cannot hold (−32,768 at int16, INT32_MIN at int32), a non-finite
// double, and a blob wider than its slots need. −0.0 needs a double.
TEST(ArbF2CounterTest, RestoreRefusesEveryOtherEncoding) {
  const VertexId n = 20;
  Rng rng(70);
  const EdgeList graph = ErdosRenyiGnm(n, 50, rng);
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  for (const Edge& e : graph.edges()) oracle.Apply(e, +1.0);
  ArbF2FourCycleCounter counter(params);
  const std::string valid = oracle.Save();
  ASSERT_TRUE(Restore(counter, valid));
  const auto refused = [&](const std::string& bytes, const std::string& why) {
    EXPECT_FALSE(Restore(counter, bytes)) << why;
    EXPECT_EQ(SaveBytes(counter), valid) << why << " changed the counter";
  };

  for (const int tag : {3, 255}) {
    std::string bytes = valid;
    bytes[kArbF2TagOffset] = static_cast<char>(tag);
    refused(bytes, "tag " + std::to_string(tag));
  }
  const std::uint64_t slots =
      ArbF2FourCycleCounter::SlotCount(n, oracle.copies());
  for (const std::uint64_t count : {slots - 1, slots + 1, std::uint64_t{0}}) {
    std::string bytes = valid;
    PutLE(bytes.data() + kArbF2TagOffset + 1, count, 8);
    refused(bytes, "count " + std::to_string(count));
  }
  refused(valid.substr(0, valid.size() - 1), "short payload");
  refused(valid + '\0', "trailing byte");
  refused(oracle.Save(1), "int16 state at int32");
  refused(oracle.Save(2), "int16 state at double");

  const double a35 = oracle.a(3, 5);
  oracle.a(3, 5) = -32768.0;
  refused(oracle.Save(0), "-32768 at int16");
  refused(oracle.Save(2), "int32 state at double");
  oracle.a(3, 5) = -2147483648.0;
  refused(oracle.Save(1), "INT32_MIN at int32");
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    oracle.a(3, 5) = bad;
    refused(oracle.Save(), "non-finite " + std::to_string(bad));
  }

  // The narrowest encodings of the same states load.
  for (const double slot : {-32768.0, -2147483648.0, -0.0}) {
    SCOPED_TRACE(slot);
    oracle.a(3, 5) = slot;
    ArbF2FourCycleCounter wide(params);
    ASSERT_TRUE(Restore(wide, oracle.Save()));
    EXPECT_EQ(wide.slot_width(), slot == -32768.0 ? SlotWidth::kInt32
                                                  : SlotWidth::kDouble);
    ExpectMatchesOracle(wide, oracle);
  }
  oracle.a(3, 5) = a35;
  EXPECT_EQ(oracle.Save(), valid);
}

// A turnstile stream of deletions only drives the slots negative: the
// star's centre reaches A = −32,768, whose bound widens the slots, and
// every estimate along the way equals the oracle's.
TEST(ArbF2CounterTest, DeletionOnlyTurnstileStreamStaysExact) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  std::size_t copy = 0;
  while (oracle.alpha(centre, copy) < 0) ++copy;
  ASSERT_LT(copy, oracle.copies());
  TurnstileStream stream;
  for (const Edge& e : StarEdges(oracle, n, centre, copy, 32768)) {
    stream.emplace_back(e, TurnstileOp::kDelete);
  }
  TurnstileF2FourCycleCounter c4(params);
  c4.StartPass(0, stream.size());
  constexpr std::size_t kBlock = 4096;
  for (std::size_t pos = 0; pos < stream.size(); pos += kBlock) {
    c4.ProcessUpdateBlock(
        0, std::span<const TurnstileUpdate>(stream.data() + pos, kBlock), pos);
    for (std::size_t i = pos; i < pos + kBlock; ++i) {
      oracle.Apply(stream[i].edge, -1.0);
    }
    EXPECT_EQ(c4.inner().slot_width(), pos + kBlock > 32767
                                           ? SlotWidth::kInt32
                                           : SlotWidth::kInt16);
    SCOPED_TRACE("after position " + std::to_string(pos + kBlock));
    ExpectEstimateMatches(c4.inner().F2Estimate(), oracle);
  }
  c4.EndPass(0);
  EXPECT_EQ(oracle.a(centre, copy), -32768.0);
  EXPECT_EQ(SaveBytes(c4.inner()), oracle.Save());
}

// Counters built on shared sign caches (how a windowed query's buckets are
// built) equal counters that draw their own, bit for bit.
TEST(ArbF2CounterTest, SharedSignCachesMatchOwnCaches) {
  const VertexId n = 30;
  Rng rng(67);
  const EdgeList graph = ErdosRenyiGnm(n, 120, rng);
  const TurnstileStream stream = TurnstileFromEdges(graph.edges());
  const auto c4_params = SmallArbF2Params(n);
  TurnstileF2FourCycleCounter c4_own(c4_params);
  TurnstileF2FourCycleCounter c4_shared(
      c4_params, ArbF2FourCycleCounter::MakeSigns(c4_params));
  TurnstileF2TriangleCounter::Params tri_params;
  tri_params.base.seed = 68;
  tri_params.num_vertices = n;
  tri_params.copies_per_group = 8;
  tri_params.groups = 3;
  TurnstileF2TriangleCounter tri_own(tri_params);
  TurnstileF2TriangleCounter tri_shared(
      tri_params, TurnstileF2TriangleCounter::MakeSigns(tri_params));
  for (TurnstileStreamAlgorithm* alg :
       std::initializer_list<TurnstileStreamAlgorithm*>{
           &c4_own, &c4_shared, &tri_own, &tri_shared}) {
    RunTurnstileStream(*alg, stream);
  }
  EXPECT_EQ(SaveBytes(c4_own), SaveBytes(c4_shared));
  EXPECT_EQ(c4_own.Result().value, c4_shared.Result().value);
  EXPECT_EQ(SaveBytes(tri_own), SaveBytes(tri_shared));
  EXPECT_EQ(tri_own.Result().value, tri_shared.Result().value);
}

// A decayed snapshot holds non-integral slots: it loads into double slots,
// re-saves byte-identically and keeps tracking the oracle.
TEST(ArbF2CounterTest, NonIntegralSnapshotLoadsAsDoubleSlots) {
  const VertexId n = 25;
  Rng rng(64);
  const EdgeList graph = ErdosRenyiGnm(n, 80, rng);
  const auto params = SmallArbF2Params(n);
  ArbF2Oracle oracle(params);
  const std::size_t half = graph.num_edges() / 2;
  for (std::size_t i = 0; i < half; ++i) oracle.Apply(graph.edges()[i], +1.0);
  oracle.Rescale(0.125);
  oracle.Apply(graph.edges()[half], +1.0);
  const std::string snapshot = oracle.Save();

  ArbF2FourCycleCounter counter(params);
  ASSERT_TRUE(Restore(counter, snapshot));
  EXPECT_TRUE(counter.double_slots());
  EXPECT_EQ(SaveBytes(counter), snapshot);
  ExpectEstimateMatches(counter.F2Estimate(), oracle);
  for (std::size_t i = half + 1; i < graph.num_edges(); ++i) {
    counter.Delete(graph.edges()[i]);
    oracle.Apply(graph.edges()[i], -1.0);
  }
  ExpectEstimateMatches(counter.F2Estimate(), oracle);
  EXPECT_EQ(SaveBytes(counter), oracle.Save());
}

// Decayed turnstile-f2-c4 across epoch boundaries, at decay_log2 in {1, 2,
// 30, 31, 32} and blocks of 1, 24 and one epoch: after every block the
// estimate and the snapshot bytes equal the double oracle's bit for bit.
// A rescale raises the integer slots' exponent, so at 2^−1 and 2^−2 the
// counter never leaves integer slots, while 2^−31 and 2^−32 pass the
// exponent cap at the first epoch and 2^−30 passes int32 at its first
// updates after it; the blob goes to double with the first non-integral
// value all the same. The paper's C form matches exactly at 2^−1 and
// 2^−2 and to rounding past them.
TEST(ArbF2CounterTest, DecayedTurnstileC4MatchesDoubleOracle) {
  const VertexId n = 30;
  Rng rng(65);
  const EdgeList graph = ErdosRenyiGnm(n, 120, rng);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.num_edges(); i += 3) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }
  constexpr std::uint64_t kEpoch = 64;
  const auto params = SmallArbF2Params(n);
  for (const std::uint32_t log2 : {1u, 2u, 30u, 31u, 32u}) {
    for (const std::size_t block : {std::size_t{1}, std::size_t{24},
                                    static_cast<std::size_t>(kEpoch)}) {
      SCOPED_TRACE("decay_log2 " + std::to_string(log2) + ", block " +
                   std::to_string(block));
      auto owned = std::make_unique<TurnstileF2FourCycleCounter>(params);
      const TurnstileF2FourCycleCounter* c4 = owned.get();
      DecayAlgorithm decayed(std::move(owned), kEpoch, log2);
      ArbF2Oracle oracle(params);
      const double factor = std::ldexp(1.0, -static_cast<int>(log2));
      decayed.StartPass(0, stream.size());
      for (std::size_t pos = 0; pos < stream.size(); pos += block) {
        const std::size_t len = std::min(block, stream.size() - pos);
        decayed.ProcessUpdateBlock(
            0, std::span<const TurnstileUpdate>(stream.data() + pos, len),
            pos);
        for (std::size_t i = pos; i < pos + len; ++i) {
          if (i > 0 && i % kEpoch == 0) oracle.Rescale(factor);
          oracle.Apply(stream[i].edge, TurnstileSign(stream[i].op));
        }
        const bool rescaled = pos + len > kEpoch;
        if (log2 <= 2) {
          EXPECT_FALSE(c4->inner().double_slots());
        } else if (log2 > 30) {
          EXPECT_EQ(c4->inner().double_slots(), rescaled);
        }
        const std::string bytes = SaveBytes(c4->inner());
        EXPECT_EQ(bytes[kArbF2TagOffset] == 2, rescaled);
        SCOPED_TRACE("after position " + std::to_string(pos + len));
        if (log2 <= 2) {
          ExpectEstimateMatches(c4->inner().F2Estimate(), oracle);
        } else {
          ExpectRoundedEstimateMatches(c4->inner().F2Estimate(), oracle);
        }
        if (HasFailure()) return;
        ASSERT_EQ(bytes, oracle.Save());
      }
      decayed.EndPass(0);
      EXPECT_EQ(SaveBytes(c4->inner()), oracle.Save());
    }
  }
}

// At decay_log2 = 32 the double values round, exactly where the oracle's
// do: one edge per epoch adds ±1 to a slot that already holds
// ±(1 + 2^−32), and ±(1 + 2^−32 + 2^−64) needs 65 significant bits, so
// the 2^−64 term is lost. The counter, past the exponent cap, rounds the
// same way.
TEST(ArbF2CounterTest, DecayLog2Of32RoundsLikeTheDoubleOracle) {
  const auto params = SmallArbF2Params(10);
  ArbF2Oracle oracle(params);
  ArbF2FourCycleCounter counter(params);
  const Edge e(2, 7);
  const double factor = std::ldexp(1.0, -32);
  for (int epoch = 0; epoch < 3; ++epoch) {
    if (epoch > 0) {
      counter.Rescale(factor);
      oracle.Rescale(factor);
    }
    counter.Insert(e);
    oracle.Apply(e, +1.0);
    ExpectMatchesOracle(counter, oracle);
  }
  // Kept exactly, A − α would be α·(2^−32 + 2^−64); the subtraction
  // itself is exact.
  const double alpha = oracle.alpha(7, 0);
  EXPECT_EQ(oracle.a(2, 0) - alpha, alpha * factor);
}

// A rescaled counter's updates move its slots by 2^exponent: at 2^29 a
// star centre's row bound passes int32 at the fourth star edge, in the
// middle of one block, and the counter goes to double values there and
// keeps matching the oracle. Fed edge by edge, three edges still fit
// int32.
TEST(ArbF2CounterTest, ScaledRowPastInt32MidBlockFallsBackToDouble) {
  const VertexId n = 40;
  const VertexId centre = n - 1;
  Rng rng(79);
  const EdgeList graph = ErdosRenyiGnm(n, 100, rng);
  const auto params = SmallArbF2Params(n);
  const ArbF2Oracle signs(params);
  const std::vector<Edge> star = StarEdges(signs, n, centre, 0, 8);
  const double factor = std::ldexp(1.0, -29);
  for (const bool per_edge : {false, true}) {
    SCOPED_TRACE(per_edge ? "per edge" : "one block");
    ArbF2Oracle oracle(params);
    ArbF2FourCycleCounter counter(params);
    ApplyInBlocks(counter, oracle, graph.edges());
    counter.Rescale(factor);
    oracle.Rescale(factor);
    EXPECT_EQ(counter.slot_width(), SlotWidth::kInt16);
    ExpectMatchesOracle(counter, oracle);
    if (per_edge) {
      for (std::size_t i = 0; i < star.size(); ++i) {
        counter.Insert(star[i]);
        oracle.Apply(star[i], +1.0);
        EXPECT_EQ(counter.slot_width(),
                  i < 3 ? SlotWidth::kInt32 : SlotWidth::kDouble);
        ExpectMatchesOracle(counter, oracle, /*exact_sums=*/false);
      }
    } else {
      ApplyInBlocks(counter, oracle, star);
      EXPECT_TRUE(counter.double_slots());
      ExpectMatchesOracle(counter, oracle, /*exact_sums=*/false);
    }
  }
}

// A merge where one side carries a rescale exponent adds the values as
// doubles, whichever side is scaled, and matches the oracle that applied
// both sides' updates in turn.
TEST(ArbF2CounterTest, MergeOfScaledAndUnscaledCountersMatchesOracle) {
  const VertexId n = 30;
  Rng rng(80);
  const EdgeList graph = ErdosRenyiGnm(n, 150, rng);
  const auto params = SmallArbF2Params(n);
  const std::span<const Edge> edges(graph.edges());
  const std::span<const Edge> early = edges.subspan(0, 50);
  const std::span<const Edge> late = edges.subspan(50, 50);
  const std::span<const Edge> other = edges.subspan(100);
  for (const bool scaled_lhs : {true, false}) {
    SCOPED_TRACE(scaled_lhs ? "scaled lhs" : "scaled rhs");
    ArbF2Oracle oracle(params);
    ArbF2FourCycleCounter scaled(params), unscaled(params);
    scaled.ProcessEdgeBlock(0, early, 0);
    scaled.Rescale(0.5);
    scaled.ProcessEdgeBlock(0, late, 0);
    unscaled.ProcessEdgeBlock(0, other, 0);
    EXPECT_FALSE(scaled.double_slots());
    for (const Edge& e : early) oracle.Apply(e, +1.0);
    oracle.Rescale(0.5);
    for (const Edge& e : late) oracle.Apply(e, +1.0);
    for (const Edge& e : other) oracle.Apply(e, +1.0);
    ArbF2FourCycleCounter& lhs = scaled_lhs ? scaled : unscaled;
    ASSERT_TRUE(lhs.MergeFrom(scaled_lhs ? unscaled : scaled));
    EXPECT_TRUE(lhs.double_slots());
    ExpectMatchesOracle(lhs, oracle);
  }
}

// A double blob as a decayed counter has always written it restores into
// double slots and keeps decaying and streaming in step with the oracle,
// block by block.
TEST(ArbF2CounterTest, DecayedDoubleBlobRestoresAndStreamsOn) {
  const VertexId n = 30;
  Rng rng(81);
  const EdgeList graph = ErdosRenyiGnm(n, 160, rng);
  TurnstileStream stream = TurnstileFromEdges(graph.edges());
  for (std::size_t i = 0; i < graph.num_edges(); i += 4) {
    stream.emplace_back(graph.edges()[i], TurnstileOp::kDelete);
  }
  const auto params = SmallArbF2Params(n);
  constexpr std::size_t kEpoch = 40;
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kResumeAt = 2 * kEpoch + 8;
  ArbF2Oracle oracle(params);
  for (std::size_t i = 0; i < kResumeAt; ++i) {
    if (i > 0 && i % kEpoch == 0) oracle.Rescale(0.5);
    oracle.Apply(stream[i].edge, TurnstileSign(stream[i].op));
  }
  const std::string blob = oracle.Save();
  ASSERT_EQ(blob[kArbF2TagOffset], 2) << "expected a double blob";
  ArbF2FourCycleCounter counter(params);
  ASSERT_TRUE(Restore(counter, blob));
  EXPECT_TRUE(counter.double_slots());
  for (std::size_t pos = kResumeAt; pos < stream.size(); pos += kBlock) {
    const std::size_t len = std::min(kBlock, stream.size() - pos);
    std::vector<Edge> edges;
    std::vector<double> weights;
    for (std::size_t i = pos; i < pos + len; ++i) {
      if (i % kEpoch == 0) {
        counter.ProcessSignedEdgeBlock(edges, weights);
        edges.clear();
        weights.clear();
        counter.Rescale(0.5);
        oracle.Rescale(0.5);
      }
      edges.push_back(stream[i].edge);
      weights.push_back(TurnstileSign(stream[i].op));
      oracle.Apply(stream[i].edge, TurnstileSign(stream[i].op));
    }
    counter.ProcessSignedEdgeBlock(edges, weights);
    ExpectMatchesOracle(counter, oracle);
  }
}

// The seed-fixed estimates of the four sign-sketch kinds on one small
// graph, pinned as exact doubles (recorded when the α/β/σ sign caches were
// still filled by per-vertex Horner evaluation). Each kind builds its sign
// caches once per counter over the whole vertex universe, so a change in
// how the caches are computed that moves a single sign moves these values:
// one group, so each value is the mean over every copy.
TEST(F2SignStreamTest, SeedFixedEstimatesArePinned) {
  constexpr VertexId kN = 150;
  Rng graph_rng(71);
  const Graph g(ErdosRenyiGnm(kN, 1100, graph_rng));
  TurnstileStream churn = TurnstileFromEdges(g.edges());
  for (std::size_t i = 0; i < g.num_edges(); i += 4) {
    churn.emplace_back(g.edges()[i], TurnstileOp::kDelete);
  }

  ArbF2FourCycleCounter::Params arb;
  arb.base.epsilon = 0.3;
  arb.base.seed = 72;
  arb.num_vertices = kN;
  arb.copies_per_group = 16;
  arb.groups = 1;
  const double arb_f2 = CountFourCyclesArbF2(g.edges(), arb).value;
  EXPECT_EQ(arb_f2, 0x1.4b38p+12) << std::hexfloat << arb_f2;

  AdjF2FourCycleCounter::Params adj;
  adj.base.epsilon = 0.3;
  adj.base.t_guess = 2000.0;
  adj.base.seed = 73;
  adj.num_vertices = kN;
  adj.copies_per_group = 16;
  adj.groups = 1;
  Rng adj_rng(74);
  const double adj_f2 =
      CountFourCyclesAdjF2(MakeAdjacencyStream(g, adj_rng), adj).value;
  EXPECT_EQ(adj_f2, 0x1.64ccp+10) << std::hexfloat << adj_f2;

  // C = 450 spans seven full 64-copy words and a partial eighth.
  adj.base.seed = 77;
  adj.copies_per_group = 50;
  adj.groups = 9;
  Rng adj450_rng(78);
  AdjF2FourCycleCounter adj450(adj);
  RunAdjacencyStream(adj450, MakeAdjacencyStream(g, adj450_rng));
  const double adj450_f2 = adj450.F2Estimate();
  const double adj450_value = adj450.Result().value;
  EXPECT_EQ(adj450_f2, 0x1.08d70a3d70a3dp+15)
      << std::hexfloat << adj450_f2;
  EXPECT_EQ(adj450_value, 0x1.1a6a147ae147ap+12)
      << std::hexfloat << adj450_value;

  arb.base.seed = 75;
  TurnstileF2FourCycleCounter c4(arb);
  RunTurnstileStream(c4, churn);
  const double c4_value = c4.Result().value;
  EXPECT_EQ(c4_value, 0x1.205ep+11) << std::hexfloat << c4_value;

  // The triangle sketch needs T to dominate the spread of Z³: a churned
  // 45-clique on every third vertex id, so the high ids' signs take part.
  std::vector<Edge> clique;
  for (VertexId i = 0; i < 45; ++i) {
    for (VertexId j = i + 1; j < 45; ++j) {
      clique.emplace_back(3 * i + 1, 3 * j + 1);
    }
  }
  TurnstileStream clique_churn = TurnstileFromEdges(clique);
  for (std::size_t i = 0; i < clique.size(); i += 4) {
    clique_churn.emplace_back(clique[i], TurnstileOp::kDelete);
  }
  TurnstileF2TriangleCounter::Params tri;
  tri.base.epsilon = 0.3;
  tri.base.seed = 76;
  tri.num_vertices = kN;
  tri.copies_per_group = 96;
  tri.groups = 1;
  TurnstileF2TriangleCounter triangles(tri);
  RunTurnstileStream(triangles, clique_churn);
  const double tri_value = triangles.Result().value;
  EXPECT_EQ(tri_value, 0x1.649eaaaaaaaabp+11) << std::hexfloat << tri_value;
}

TEST(AdjL2CounterTest, EndToEndOnDenseGraph) {
  const Graph g = DenseGraph(90, 0.35, 18);
  const double exact = static_cast<double>(CountFourCycles(g));
  std::vector<double> estimates;
  for (int t = 0; t < 5; ++t) {
    AdjL2FourCycleCounter::Params params;
    params.base.epsilon = 0.2;
    params.base.t_guess = exact;
    params.base.seed = 400 + t;
    params.num_vertices = g.num_vertices();
    params.sampler_copies = 160;
    Rng rng(19 + t);
    const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
    estimates.push_back(CountFourCyclesAdjL2(stream, params).value);
  }
  EXPECT_NEAR(Summarize(estimates).median, exact, 0.45 * exact);
}

TEST(AdjL2CounterTest, ReportsSamplesAndSpace) {
  const Graph g = DenseGraph(70, 0.3, 20);
  AdjL2FourCycleCounter::Params params;
  params.base.epsilon = 0.25;
  params.base.t_guess = 1000.0;
  params.base.seed = 21;
  params.num_vertices = g.num_vertices();
  params.sampler_copies = 64;
  Rng rng(22);
  const AdjacencyStream stream = MakeAdjacencyStream(g, rng);
  AdjL2FourCycleCounter counter(params);
  RunAdjacencyStream(counter, stream);
  EXPECT_GT(counter.SamplesUsed(), 0u);
  EXPECT_GT(counter.Result().space_words, 0u);
}

}  // namespace
}  // namespace cyclestream
