#include "core/arb_f2_counter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "hash/kwise_bank.h"
#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

namespace {

constexpr std::uint64_t kInt16SlotMax = 32767;       // 2^15 − 1
constexpr std::uint64_t kInt32SlotMax = 2147483647;  // 2^31 − 1
constexpr std::uint64_t kAnyBound = ~std::uint64_t{0};

// Derives the copy counts left to the counter.
ArbF2FourCycleCounter::Params Normalized(ArbF2FourCycleCounter::Params params) {
  CHECK_GE(params.num_vertices, 2u);
  CHECK_GT(params.base.epsilon, 0.0);
  const double eps = params.base.epsilon;
  if (params.copies_per_group <= 0) {
    params.copies_per_group = std::max(
        static_cast<int>(std::min(512.0, std::ceil(2.0 / (eps * eps)))), 1);
  }
  params.groups = std::max(params.groups, 1);
  return params;
}

std::size_t NumCopies(const ArbF2FourCycleCounter::Params& params) {
  return static_cast<std::size_t>(params.groups * params.copies_per_group);
}

// True when x is held exactly, bit pattern included, by an int32 slot
// (so -0.0 and non-integers are not).
bool FitsInt32Slot(double x) {
  return std::fabs(x) <= static_cast<double>(kInt32SlotMax) &&
         std::bit_cast<std::uint64_t>(
             static_cast<double>(static_cast<std::int32_t>(x))) ==
             std::bit_cast<std::uint64_t>(x);
}

// Replaces the live row vector with a vector of To holding the same
// values, unless it is already at least as wide (int16 < int32 < double,
// the order of their sizes). Every slot is an exact integer within the
// narrower type's range, so the conversion is exact.
template <typename To, typename Rows>
void WidenRows(Rows& rows) {
  std::visit(
      [&rows](auto& from) {
        using From = typename std::decay_t<decltype(from)>::value_type;
        if constexpr (sizeof(From) < sizeof(To)) {
          std::vector<To> wide(from.begin(), from.end());
          rows = std::move(wide);
        }
      },
      rows);
}

// Adds edge e's deltas, weighted by sign, into the accumulator rows: A_u +=
// α_v, B_u += β_v, C_u += α_v·β_v (the wedge centered at u gains neighbor
// v), then the same for v; each is one unit-stride sweep over a 3C-slot row.
// Row u is finished before row v, so even a self-loop adds into each slot
// in the historical order. The caller's row bounds keep every integer sum
// inside T.
template <typename T>
void ApplyEdge(T* rows, const signed char* alpha, const signed char* beta,
               std::size_t c, const Edge& e, T sign) {
  const auto sweep = [c, sign](T* __restrict row,
                               const signed char* __restrict a,
                               const signed char* __restrict b) {
    for (std::size_t i = 0; i < c; ++i) {
      const T ai = static_cast<T>(a[i]);
      const T bi = static_cast<T>(b[i]);
      row[i] = static_cast<T>(row[i] + sign * ai);
      row[c + i] = static_cast<T>(row[c + i] + sign * bi);
      row[2 * c + i] = static_cast<T>(row[2 * c + i] + sign * ai * bi);
    }
  };
  const std::size_t u = e.u;
  const std::size_t v = e.v;
  sweep(rows + u * 3 * c, alpha + v * c, beta + v * c);
  sweep(rows + v * 3 * c, alpha + u * c, beta + u * c);
}

}  // namespace

std::shared_ptr<const ArbF2FourCycleCounter::Signs>
ArbF2FourCycleCounter::MakeSigns(const Params& raw_params) {
  const Params params = Normalized(raw_params);
  const std::size_t c = NumCopies(params);
  const std::size_t n = params.num_vertices;
  std::uint64_t seed = params.base.seed ^ 0x41524246ULL;  // "ARBF"
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
  auto signs = std::make_shared<Signs>();
  signs->alpha.resize(n * c);
  signs->beta.resize(n * c);
  KWiseHashBank(/*k=*/4, alpha_seeds).SignTable(n, signs->alpha.data());
  KWiseHashBank(/*k=*/4, beta_seeds).SignTable(n, signs->beta.data());
  return signs;
}

ArbF2FourCycleCounter::ArbF2FourCycleCounter(
    const Params& params, std::shared_ptr<const Signs> signs)
    : params_(Normalized(params)),
      num_copies_(NumCopies(params_)),
      signs_(signs != nullptr ? std::move(signs) : MakeSigns(params_)),
      rows_(std::in_place_type<std::vector<std::int16_t>>,
            params_.num_vertices * 3 * num_copies_),
      row_bound_(params_.num_vertices, 0) {
  const std::size_t table = params_.num_vertices * num_copies_;
  CHECK_EQ(signs_->alpha.size(), table);
  CHECK_EQ(signs_->beta.size(), table);
}

void ArbF2FourCycleCounter::WidenFor(std::uint64_t bound) {
  if (bound > kInt32SlotMax) {
    WidenRows<double>(rows_);
    row_bound_ = std::vector<std::uint32_t>();
  } else if (bound > kInt16SlotMax) {
    WidenRows<std::int32_t>(rows_);
  }
}

void ArbF2FourCycleCounter::ApplyBlock(std::span<const Edge> edges,
                                       const double* signs) {
  if (!double_slots()) {
    // Each endpoint's update moves every slot of its row by at most one, so
    // the rows' bounds grow by one per endpoint (two for a self-loop)
    // before any slot moves. Once one passes int32 the rows go to double
    // and the rest are not needed; stopping there keeps every bound at or
    // below 2^31 + 1, so none wraps.
    std::uint64_t peak = 0;
    for (const Edge& e : edges) {
      peak = std::max<std::uint64_t>(peak, ++row_bound_[e.u]);
      peak = std::max<std::uint64_t>(peak, ++row_bound_[e.v]);
      if (peak > kInt32SlotMax) break;
    }
    WidenFor(peak);
  }
  std::visit(
      [&](auto& rows) {
        using T = typename std::decay_t<decltype(rows)>::value_type;
        for (std::size_t i = 0; i < edges.size(); ++i) {
          ApplyEdge(rows.data(), signs_->alpha.data(), signs_->beta.data(),
                    num_copies_, edges[i],
                    signs == nullptr ? T{1} : static_cast<T>(signs[i]));
        }
      },
      rows_);
}

void ArbF2FourCycleCounter::StartPass(int pass, std::size_t stream_length) {
  CHECK_EQ(pass, 0);
  (void)stream_length;
}

void ArbF2FourCycleCounter::ProcessEdge(int pass, const Edge& e,
                                        std::size_t position) {
  (void)pass;
  (void)position;
  Insert(e);
}

void ArbF2FourCycleCounter::ProcessEdgeBlock(int pass,
                                             std::span<const Edge> edges,
                                             std::size_t base_position) {
  (void)pass;
  (void)base_position;
  ApplyBlock(edges, nullptr);
}

void ArbF2FourCycleCounter::ProcessSignedEdgeBlock(
    std::span<const Edge> edges, std::span<const double> signs) {
  CHECK_EQ(edges.size(), signs.size());
  for (double s : signs) CHECK(s == 1.0 || s == -1.0) << "sign " << s;
  ApplyBlock(edges, signs.data());
}

void ArbF2FourCycleCounter::Rescale(double factor) {
  WidenFor(kAnyBound);
  for (double& x : std::get<std::vector<double>>(rows_)) x *= factor;
}

void ArbF2FourCycleCounter::EndPass(int pass) { (void)pass; }

double ArbF2FourCycleCounter::F2Estimate() const {
  const std::size_t n = params_.num_vertices;
  const std::size_t c = num_copies_;
  // One vertex-outer sweep over the rows. Copy i still sums its terms in
  // vertex order 0..n−1, so z_i is bit-identical to a copy-outer walk.
  std::vector<double>& z = square_scratch_;
  z.assign(c, 0.0);
  std::visit(
      [&](const auto& rows) {
        for (std::size_t t = 0; t < n; ++t) {
          const auto* row = rows.data() + t * 3 * c;
          for (std::size_t i = 0; i < c; ++i) {
            z[i] += (static_cast<double>(row[i]) *
                         static_cast<double>(row[c + i]) -
                     static_cast<double>(row[2 * c + i])) /
                    2.0;
          }
        }
      },
      rows_);
  // E[Z²] = F₂/2 (see AdjF2FourCycleCounter::EndPass): rescale by 2.
  for (double& zi : z) zi = 2.0 * zi * zi;
  return MedianOfMeans(z, static_cast<std::size_t>(params_.groups));
}

Estimate ArbF2FourCycleCounter::Result() const {
  Estimate result;
  result.value =
      std::max(0.0, (F2Estimate() - params_.f1_correction) / 4.0);
  // 3n accumulator words plus the two byte-packed ±1 sign caches per copy.
  const std::size_t n = params_.num_vertices;
  result.space_words = num_copies_ * (3 * n + 2 * n / 8 + 2);
  return result;
}

bool ArbF2FourCycleCounter::SaveState(StateWriter& w) const {
  // Only the accumulators are stream-dependent; the sign caches are
  // constructor-derived from the fingerprinted seed.
  const std::size_t n = params_.num_vertices;
  const std::size_t c = num_copies_;
  // Exact arbf2/1 size: a u32 and five 8-byte config fields, then three
  // length-prefixed arrays.
  w.Reserve(4 + 5 * 8 + 3 * (8 + n * c * sizeof(double)));
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  w.Double(params_.f1_correction);
  // The arbf2/1 layout: the A, B and C arrays, each a StateWriter::Vec of
  // n·C copy-minor doubles, written one row segment at a time.
  std::visit(
      [&](const auto& rows) {
        std::vector<double> out(c);
        for (std::size_t k = 0; k < 3; ++k) {
          w.Size(n * c);
          for (std::size_t v = 0; v < n; ++v) {
            const auto* seg = rows.data() + v * 3 * c + k * c;
            for (std::size_t i = 0; i < c; ++i) {
              out[i] = static_cast<double>(seg[i]);
            }
            w.Bytes(out.data(), c * sizeof(double));
          }
        }
      },
      rows_);
  return true;
}

bool ArbF2FourCycleCounter::RestoreState(StateReader& r) {
  if (r.U32() != params_.num_vertices || r.Size() != num_copies_ ||
      r.I64() != params_.groups || r.Double() != params_.base.epsilon ||
      r.U64() != params_.base.seed || r.Double() != params_.f1_correction) {
    return r.Fail();
  }
  const std::size_t n = params_.num_vertices;
  const std::size_t c = num_copies_;
  std::string_view arrays[3];
  for (std::string_view& bytes : arrays) {
    if (r.Size() != n * c) return r.Fail();
    bytes = r.Bytes(n * c * sizeof(double));
    if (!r.ok()) return false;
  }
  const auto slot = [&](std::size_t k, std::size_t j) {
    double x;
    std::memcpy(&x, arrays[k].data() + j * sizeof(double), sizeof(double));
    return x;
  };
  // A non-finite slot can only come from corruption and would poison the
  // estimate. Each row's bound is its largest |slot|, and the slots load at
  // the narrowest width the largest bound fits — as `double` if a slot is
  // not an exact int32 value.
  std::vector<std::uint32_t> bound(n, 0);
  bool integral = true;
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < c; ++i) {
        const double x = slot(k, v * c + i);
        if (!std::isfinite(x)) return r.Fail();
        if (integral && FitsInt32Slot(x)) {
          bound[v] = std::max(bound[v], static_cast<std::uint32_t>(
                                            std::fabs(x)));
        } else {
          integral = false;
        }
      }
    }
  }
  const std::uint64_t peak =
      integral ? *std::max_element(bound.begin(), bound.end()) : kAnyBound;
  rows_ = Rows();
  row_bound_ = std::move(bound);
  WidenFor(peak);
  std::visit(
      [&](auto& rows) {
        using T = typename std::decay_t<decltype(rows)>::value_type;
        rows.resize(n * 3 * c);
        for (std::size_t k = 0; k < 3; ++k) {
          for (std::size_t v = 0; v < n; ++v) {
            T* seg = rows.data() + v * 3 * c + k * c;
            for (std::size_t i = 0; i < c; ++i) {
              seg[i] = static_cast<T>(slot(k, v * c + i));
            }
          }
        }
      },
      rows_);
  return true;
}

bool ArbF2FourCycleCounter::MergeFrom(const EdgeStreamAlgorithm& other) {
  // Identify by CheckpointId (stable tag, no RTTI dependence), then verify
  // the same config fields RestoreState fingerprints — a merge across
  // mismatched seeds or dimensions would be silent garbage.
  if (other.CheckpointId() != CheckpointId()) return false;
  const auto& rhs = static_cast<const ArbF2FourCycleCounter&>(other);
  if (rhs.params_.num_vertices != params_.num_vertices ||
      rhs.num_copies_ != num_copies_ ||
      rhs.params_.groups != params_.groups ||
      rhs.params_.base.epsilon != params_.base.epsilon ||
      rhs.params_.base.seed != params_.base.seed ||
      rhs.params_.f1_correction != params_.f1_correction) {
    return false;
  }
  // Row by row the bounds add: both are at most 2^31 − 1, so their sum
  // fits a uint32. The sum widens the slots as an update block would.
  if (rhs.double_slots()) {
    WidenFor(kAnyBound);
  } else if (!double_slots()) {
    std::uint64_t peak = 0;
    for (std::size_t v = 0; v < row_bound_.size(); ++v) {
      row_bound_[v] += rhs.row_bound_[v];
      peak = std::max<std::uint64_t>(peak, row_bound_[v]);
    }
    WidenFor(peak);
  }
  std::visit(
      [](auto& dst, const auto& src) {
        using T = typename std::decay_t<decltype(dst)>::value_type;
        for (std::size_t i = 0; i < dst.size(); ++i) {
          dst[i] = static_cast<T>(dst[i] + static_cast<T>(src[i]));
        }
      },
      rows_, rhs.rows_);
  return true;
}

Estimate CountFourCyclesArbF2(const EdgeStream& stream,
                              const ArbF2FourCycleCounter::Params& params) {
  ArbF2FourCycleCounter counter(params);
  RunEdgeStream(counter, stream);
  return counter.Result();
}

}  // namespace cyclestream
