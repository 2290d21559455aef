#include "core/adj_f2_counter.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <mutex>

#include "graph/flat_map.h"
#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/serialize.h"

namespace cyclestream {
namespace {

// The explicit F₁(z) sample never holds more pairs than this; past it the
// rate is lowered to keep the estimate unbiased.
constexpr std::uint64_t kMaxPairs = 4000000;

// One carry-save adder: hi·2 + lo = a + b + c, bitwise.
inline void Csa(std::uint64_t& hi, std::uint64_t& lo, std::uint64_t a,
                std::uint64_t b, std::uint64_t c) {
  const std::uint64_t u = a ^ b;
  hi = (a & b) | (u & c);
  lo = u ^ c;
}

// Adds 16 one-bit words to the bit-sliced counter whose binary digit p is
// plane[p·stride], p < num_planes: the Harley–Seal tree folds the inputs
// into digits 0–3 and yields the carry into digit 4, which ripples up.
// The caller sizes num_planes so that no carry leaves the top digit.
inline void AddSixteen(const std::uint64_t (&in)[16], std::uint64_t* plane,
                       std::size_t stride, int num_planes) {
  std::uint64_t ones = plane[0];
  std::uint64_t twos = plane[stride];
  std::uint64_t fours = plane[2 * stride];
  std::uint64_t eights = plane[3 * stride];
  std::uint64_t twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
  std::uint64_t sixteens;
  Csa(twos_a, ones, ones, in[0], in[1]);
  Csa(twos_b, ones, ones, in[2], in[3]);
  Csa(fours_a, twos, twos, twos_a, twos_b);
  Csa(twos_a, ones, ones, in[4], in[5]);
  Csa(twos_b, ones, ones, in[6], in[7]);
  Csa(fours_b, twos, twos, twos_a, twos_b);
  Csa(eights_a, fours, fours, fours_a, fours_b);
  Csa(twos_a, ones, ones, in[8], in[9]);
  Csa(twos_b, ones, ones, in[10], in[11]);
  Csa(fours_a, twos, twos, twos_a, twos_b);
  Csa(twos_a, ones, ones, in[12], in[13]);
  Csa(twos_b, ones, ones, in[14], in[15]);
  Csa(fours_b, twos, twos, twos_a, twos_b);
  Csa(eights_b, fours, fours, fours_a, fours_b);
  Csa(sixteens, eights, eights, eights_a, eights_b);
  plane[0] = ones;
  plane[stride] = twos;
  plane[2 * stride] = fours;
  plane[3 * stride] = eights;
  std::uint64_t carry = sixteens;
  for (int p = 4; p < num_planes; ++p) {
    std::uint64_t& digit = plane[static_cast<std::size_t>(p) * stride];
    const std::uint64_t next = digit & carry;
    digit ^= carry;
    carry = next;
  }
}

// cnt[b] += weight for every set bit b of the 32-bit word: branch-free over a
// constant mask table, so gcc vectorizes it at baseline SSE2.
inline void AddDigit(std::uint32_t bits, std::int32_t weight,
                     std::int32_t* cnt) {
  static constexpr auto kMasks = [] {
    std::array<std::uint32_t, 32> masks{};
    for (std::size_t b = 0; b < 32; ++b) masks[b] = 1u << b;
    return masks;
  }();
  for (std::size_t b = 0; b < 32; ++b) {
    cnt[b] += (bits & kMasks[b]) ? weight : 0;
  }
}

}  // namespace

AdjF2FourCycleCounter::AdjF2FourCycleCounter(const Params& params)
    : params_(params) {
  CHECK_GE(params.num_vertices, 2u);
  CHECK_GT(params.base.epsilon, 0.0);
  CHECK_GE(params.base.t_guess, 1.0);
  const double eps = params.base.epsilon;
  const double n = static_cast<double>(params.num_vertices);
  const double t = params.base.t_guess;

  z_cap_ = static_cast<std::uint32_t>(std::ceil(1.0 / eps));

  // γ = ε·min(1, εT/n²); per-group copies ~ 2/γ².
  const double gamma = eps * std::min(1.0, eps * t / (n * n));
  int per_group = params.copies_per_group;
  if (per_group <= 0) {
    per_group = static_cast<int>(
        std::min(4096.0, std::ceil(2.0 / (gamma * gamma))));
    per_group = std::max(per_group, 1);
  }
  const int groups = std::max(params.groups, 1);
  std::uint64_t seed = params.base.seed ^ 0x41444a46ULL;  // "ADJF"
  num_copies_ = static_cast<std::size_t>(groups * per_group);
  const std::size_t c = num_copies_;
  const std::size_t nv = params.num_vertices;
  // Seed chain: the historical code drew both seeds inside an emplace_back
  // argument list, which gcc evaluates right-to-left — the beta seed came
  // off the splitmix chain first. Preserved verbatim so the sign streams
  // (and therefore all estimates) are unchanged.
  std::vector<std::uint64_t> alpha_seeds(c);
  std::vector<std::uint64_t> beta_seeds(c);
  for (std::size_t i = 0; i < c; ++i) {
    beta_seeds[i] = SplitMix64(seed);
    alpha_seeds[i] = SplitMix64(seed);
  }
  const KWiseHashBank alpha_bank(/*k=*/4, alpha_seeds);
  const KWiseHashBank beta_bank(/*k=*/4, beta_seeds);
  words_ = (c + 63) / 64;
  const std::size_t row = 2 * words_;
  neg_bits_.resize(nv * row);
  alpha_bank.SignBits(nv, row, neg_bits_.data());
  beta_bank.SignBits(nv, row, neg_bits_.data() + words_);
  zero_row_.assign(row, 0);
  counts_.resize(3 * 64 * words_);
  z_.assign(c, 0.0);
  params_.groups = groups;
  params_.copies_per_group = per_group;

  // Pair sampling for F1(z): paper rate p = 6·ε⁻⁴·n²·T⁻²·log n, clamped.
  pair_rate_ = params.pair_rate > 0.0
                   ? std::min(1.0, params.pair_rate)
                   : std::min(1.0, 6.0 * std::pow(eps, -4.0) * n * n /
                                       (t * t) * std::log2(n + 2.0));

  // Materialize the pair sample without enumerating all C(n,2) pairs:
  // draw the Binomial count, then distinct uniform pairs.
  Rng rng(params.base.seed ^ 0xf1f1ULL);
  const double total_pairs = n * (n - 1.0) / 2.0;
  std::uint64_t want =
      pair_rate_ >= 1.0
          ? static_cast<std::uint64_t>(total_pairs)
          : rng.Binomial(static_cast<std::uint64_t>(total_pairs), pair_rate_);
  if (want > kMaxPairs) {
    // Degenerate parameterization (tiny T guess, or a rate near 1 on a big
    // vertex set): cap the explicit sample so the simulation stays
    // tractable; the estimate remains unbiased with the adjusted rate.
    want = kMaxPairs;
    pair_rate_ = static_cast<double>(want) / total_pairs;
    static std::once_flag warned;
    std::call_once(warned, [&] {
      LOG(WARNING) << "adj-f2: F1 pair sample capped at " << kMaxPairs
                   << " pairs (pair rate lowered to " << pair_rate_ << ")";
    });
  }
  FlatSet64 chosen;
  chosen.reserve(want);
  pair_u_.reserve(want);
  pair_v_.reserve(want);
  while (pair_u_.size() < want) {
    const VertexId a = static_cast<VertexId>(rng.UniformInt(params.num_vertices));
    const VertexId b = static_cast<VertexId>(rng.UniformInt(params.num_vertices));
    if (a == b) continue;
    if (chosen.insert(PairKey(a, b))) {
      pair_u_.push_back(std::min(a, b));
      pair_v_.push_back(std::max(a, b));
    }
  }
  pair_z_.assign(want, 0);
  counted_.assign(want, ~0ull);
  last_seen_.assign(nv, ~0ull);

  // CSR by the smaller endpoint, filled in draw order so each vertex's
  // pair indices ascend.
  pair_offset_.assign(nv + 1, 0);
  for (const VertexId u : pair_u_) ++pair_offset_[u + 1];
  for (std::size_t v = 0; v < nv; ++v) pair_offset_[v + 1] += pair_offset_[v];
  pair_other_.resize(want);
  pair_index_.resize(want);
  std::vector<std::uint32_t> next(pair_offset_.begin(), pair_offset_.end() - 1);
  for (std::size_t i = 0; i < want; ++i) {
    const std::uint32_t k = next[pair_u_[i]]++;
    pair_other_[k] = pair_v_[i];
    pair_index_[k] = static_cast<std::uint32_t>(i);
  }
}

void AdjF2FourCycleCounter::StartPass(int pass, std::size_t num_lists) {
  (void)pass;
  (void)num_lists;
}

void AdjF2FourCycleCounter::ProcessList(int pass, const AdjacencyList& list,
                                        std::size_t position) {
  CHECK_EQ(pass, 0);
  // F2 copies: count the −1 signs of α, β and α⊕β among the neighbours,
  // bit-sliced, 16 neighbours per Harley–Seal step.
  const std::size_t deg = list.neighbors.size();
  const std::size_t words = words_;
  const std::size_t row = 2 * words;
  const std::size_t lanes = 3 * words;
  const int num_planes = std::max(4, static_cast<int>(std::bit_width(deg)));
  const std::size_t plane_words = static_cast<std::size_t>(num_planes) * lanes;
  if (planes_.size() < plane_words) planes_.resize(plane_words);
  std::fill_n(planes_.begin(), plane_words, 0);
  std::uint64_t* planes = planes_.data();
  const auto sign_row = [&](std::size_t j) {
    return j < deg ? neg_bits_.data() +
                         static_cast<std::size_t>(list.neighbors[j]) * row
                   : zero_row_.data();
  };
  for (std::size_t start = 0; start < deg; start += 16) {
    const std::uint64_t* rows[16];
    for (std::size_t j = 0; j < 16; ++j) rows[j] = sign_row(start + j);
    std::uint64_t in[16];
    for (std::size_t lane = 0; lane < row; ++lane) {
      for (std::size_t j = 0; j < 16; ++j) in[j] = rows[j][lane];
      AddSixteen(in, planes + lane, lanes, num_planes);
    }
    for (std::size_t w = 0; w < words; ++w) {
      for (std::size_t j = 0; j < 16; ++j) {
        in[j] = rows[j][w] ^ rows[j][words + w];
      }
      AddSixteen(in, planes + row + w, lanes, num_planes);
    }
  }
  std::fill(counts_.begin(), counts_.end(), 0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    std::int32_t* cnt = counts_.data() + 64 * lane;
    for (int p = 0; p < num_planes; ++p) {
      const std::uint64_t bits =
          planes[static_cast<std::size_t>(p) * lanes + lane];
      const std::int32_t weight = std::int32_t{1} << p;
      AddDigit(static_cast<std::uint32_t>(bits), weight, cnt);
      AddDigit(static_cast<std::uint32_t>(bits >> 32), weight, cnt + 32);
    }
  }
  // A = Σα = d − 2nα exactly, as the old per-copy double sums held it.
  const std::size_t c = num_copies_;
  const std::int32_t* neg_a = counts_.data();
  const std::int32_t* neg_b = neg_a + 64 * words;
  const std::int32_t* neg_x = neg_b + 64 * words;
  const double d = static_cast<double>(deg);
  for (std::size_t i = 0; i < c; ++i) {
    const double a = d - 2.0 * neg_a[i];
    const double b = d - 2.0 * neg_b[i];
    const double x = d - 2.0 * neg_x[i];
    z_[i] += (a * b - x) / 2.0;
  }

  // F1(z) pairs: stamp every neighbour with this list's position, then
  // count each sampled pair whose endpoints both carry it, once per list.
  const std::uint64_t stamp = position;
  for (const VertexId w : list.neighbors) last_seen_[w] = stamp;
  for (const VertexId w : list.neighbors) {
    const std::uint32_t end = pair_offset_[w + 1];
    for (std::uint32_t k = pair_offset_[w]; k < end; ++k) {
      if (last_seen_[pair_other_[k]] != stamp) continue;
      const std::uint32_t idx = pair_index_[k];
      if (counted_[idx] == stamp) continue;
      counted_[idx] = stamp;
      if (pair_z_[idx] < z_cap_) ++pair_z_[idx];
    }
  }

  if ((position & 0x3f) == 0) UpdateSpace();
}

void AdjF2FourCycleCounter::UpdateSpace() {
  // Per copy: the four counters (A/B/C/Z) plus the two ±1 sign caches at 8
  // packed signs per word. Pairs: endpoints, z, and the two stamps.
  space_.SetComponent("sketch",
                      num_copies_ * (4 + 2 * params_.num_vertices / 8));
  space_.SetComponent("pairs", pair_u_.size() * 5);
}

std::size_t AdjF2FourCycleCounter::AuditSpace() const {
  // Copy count taken from the real Z array and the vertex count from the
  // real sign rows, cross-checking the num_copies_/num_vertices-derived
  // accounting formula (which charges the signs at 8 per word).
  const std::size_t copies = z_.size();
  const std::size_t vertices =
      words_ == 0 ? 0 : neg_bits_.size() / (2 * words_);
  return copies * (4 + 2 * vertices / 8) + pair_u_.size() * 5;
}

void AdjF2FourCycleCounter::EndPass(int pass) {
  CHECK_EQ(pass, 0);
  // E[Z²] = F₂/2: the symmetrized basic estimator
  // Z = Σ_{unordered {u,v}} x_{uv}(α_u β_v + α_v β_u)/2 has per-coordinate
  // second moment 1/2 (the αβ cross term vanishes under 4-wise
  // independence), so the unbiased estimate is 2·Z².
  square_scratch_.resize(num_copies_);
  for (std::size_t i = 0; i < num_copies_; ++i) {
    square_scratch_[i] = 2.0 * z_[i] * z_[i];
  }
  f2_estimate_ =
      MedianOfMeans(square_scratch_, static_cast<std::size_t>(params_.groups));

  double z_sum = 0.0;
  for (const std::uint32_t z : pair_z_) z_sum += z;
  f1_estimate_ = pair_rate_ > 0.0 ? z_sum / pair_rate_ : 0.0;

  UpdateSpace();
  result_.value = std::max(0.0, (f2_estimate_ - f1_estimate_) / 4.0);
  result_.space_words = space_.Peak();
}

bool AdjF2FourCycleCounter::SaveState(StateWriter& w) const {
  // Config fingerprint. The sign rows, pair sample identities, and the
  // pairs-by-vertex index are all constructor-derived from these, so only
  // the running counters and per-pair observations need to travel.
  w.U32(params_.num_vertices);
  w.U32(z_cap_);
  w.Double(pair_rate_);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.Double(params_.base.t_guess);
  w.U64(params_.base.seed);
  w.Vec(z_);
  w.Size(pair_u_.size());
  for (std::size_t i = 0; i < pair_u_.size(); ++i) {
    w.U32(pair_u_[i]);
    w.U32(pair_v_[i]);
    w.U32(pair_z_[i]);
    w.U64(last_seen_[pair_u_[i]]);
    w.U64(last_seen_[pair_v_[i]]);
    w.U64(counted_[i]);
  }
  space_.SaveState(w);
  return true;
}

bool AdjF2FourCycleCounter::RestoreState(StateReader& r) {
  if (r.U32() != params_.num_vertices || r.U32() != z_cap_ ||
      r.Double() != pair_rate_ || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.Double() != params_.base.t_guess || r.U64() != params_.base.seed) {
    return r.Fail();
  }
  std::vector<double> z;
  if (!r.Vec(&z) || z.size() != z_.size()) return r.Fail();
  const std::size_t num_pairs = pair_u_.size();
  if (r.Size() != num_pairs) return r.Fail();
  // Each pair carries both endpoints' last-seen stamps; a vertex's copies
  // must agree. Nothing is committed until the whole sample has loaded.
  std::vector<std::uint32_t> pair_z(num_pairs);
  std::vector<std::uint64_t> counted(num_pairs);
  std::vector<std::uint64_t> last_seen(last_seen_.size(), ~0ull);
  std::vector<bool> restored(last_seen_.size(), false);
  const auto restore_stamp = [&](VertexId v, std::uint64_t stamp) {
    if (restored[v]) return last_seen[v] == stamp;
    restored[v] = true;
    last_seen[v] = stamp;
    return true;
  };
  for (std::size_t i = 0; i < num_pairs; ++i) {
    if (r.U32() != pair_u_[i] || r.U32() != pair_v_[i]) return r.Fail();
    pair_z[i] = r.U32();
    const std::uint64_t stamp_u = r.U64();
    const std::uint64_t stamp_v = r.U64();
    counted[i] = r.U64();
    if (!restore_stamp(pair_u_[i], stamp_u) ||
        !restore_stamp(pair_v_[i], stamp_v)) {
      return r.Fail();
    }
  }
  if (!r.ok()) return false;
  z_ = std::move(z);
  pair_z_ = std::move(pair_z);
  counted_ = std::move(counted);
  last_seen_ = std::move(last_seen);
  return space_.RestoreState(r);
}

Estimate CountFourCyclesAdjF2(const AdjacencyStream& stream,
                              const AdjF2FourCycleCounter::Params& params) {
  AdjF2FourCycleCounter counter(params);
  RunAdjacencyStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
