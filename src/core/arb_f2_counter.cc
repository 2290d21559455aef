#include "core/arb_f2_counter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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

// arbf2/2 stores its slots as the rows lie in memory.
static_assert(std::endian::native == std::endian::little,
              "arbf2/2 slots are little-endian");

// The arbf2/2 blob: six config fields (a u32 and five 8-byte words), a u8
// width tag, a u64 slot count, then the slots at that width.
constexpr std::size_t kConfigBytes = 4 + 5 * 8;

constexpr std::size_t SlotBytes(ArbF2FourCycleCounter::SlotWidth width) {
  switch (width) {
    case ArbF2FourCycleCounter::SlotWidth::kInt16: return 2;
    case ArbF2FourCycleCounter::SlotWidth::kInt32: return 4;
    case ArbF2FourCycleCounter::SlotWidth::kDouble: return 8;
  }
  return 8;
}

// Appends `rows` as To slots: one Bytes call when To is the live type,
// otherwise row by row through one converted row (exact: SaveState picks a
// To that holds every slot).
template <typename To, typename From>
void WriteSlots(StateWriter& w, const std::vector<From>& rows,
                std::size_t row_slots) {
  if constexpr (std::is_same_v<To, From>) {
    w.Bytes(rows.data(), rows.size() * sizeof(From));
  } else {
    std::vector<To> row(row_slots);
    for (std::size_t at = 0; at < rows.size(); at += row_slots) {
      for (std::size_t i = 0; i < row_slots; ++i) {
        row[i] = static_cast<To>(rows[at + i]);
      }
      w.Bytes(row.data(), row_slots * sizeof(To));
    }
  }
}

// Checks a payload of `n` rows of `row_slots` T slots and, if it passes,
// loads it into `rows` and each integer row's largest |slot| into `bound`
// (left empty for `double`). It refuses an integer slot at T's minimum,
// whose magnitude T cannot hold; a non-finite `double`, which only
// corruption produces and which would poison the estimate; and a payload
// the next narrower width would hold exactly, so that every state has
// exactly one encoding.
template <typename T, typename Rows>
bool LoadSlots(std::string_view payload, std::size_t n, std::size_t row_slots,
               std::vector<std::uint32_t>* bound, Rows* rows) {
  constexpr bool kDouble = std::is_same_v<T, double>;
  if constexpr (!kDouble) bound->assign(n, 0);
  bool narrower = true;
  for (std::size_t v = 0; v < n; ++v) {
    const char* row = payload.data() + v * row_slots * sizeof(T);
    std::uint32_t row_peak = 0;
    for (std::size_t i = 0; i < row_slots; ++i) {
      T x;
      std::memcpy(&x, row + i * sizeof(T), sizeof(T));
      if constexpr (kDouble) {
        if (!std::isfinite(x)) return false;
        narrower &= FitsInt32Slot(x);
      } else {
        if (x == std::numeric_limits<T>::min()) return false;
        row_peak = std::max(row_peak, static_cast<std::uint32_t>(
                                          x < 0 ? -std::int64_t{x} : x));
      }
    }
    if constexpr (!kDouble) {
      (*bound)[v] = row_peak;
      narrower &= row_peak <= kInt16SlotMax;
    }
  }
  if (narrower && !std::is_same_v<T, std::int16_t>) return false;
  *rows = Rows();
  std::memcpy(rows->template emplace<std::vector<T>>(n * row_slots).data(),
              payload.data(), payload.size());
  return true;
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

ArbF2FourCycleCounter::SlotWidth ArbF2FourCycleCounter::NarrowestWidth()
    const {
  return std::visit(
      [](const auto& rows) {
        using T = typename std::decay_t<decltype(rows)>::value_type;
        if constexpr (std::is_same_v<T, std::int16_t>) {
          return SlotWidth::kInt16;
        } else {
          // A live int32 slot is never INT32_MIN (its row bound is at most
          // 2^31 − 1), so std::abs is exact on it.
          bool int16 = true;
          for (const T x : rows) {
            if constexpr (std::is_same_v<T, double>) {
              if (!FitsInt32Slot(x)) return SlotWidth::kDouble;
            }
            int16 &= std::abs(x) <= static_cast<T>(kInt16SlotMax);
          }
          return int16 ? SlotWidth::kInt16 : SlotWidth::kInt32;
        }
      },
      rows_);
}

bool ArbF2FourCycleCounter::SaveState(StateWriter& w) const {
  // Only the accumulators are stream-dependent; the sign caches are
  // constructor-derived from the fingerprinted seed.
  const SlotWidth width = NarrowestWidth();
  const std::size_t slots = params_.num_vertices * 3 * num_copies_;
  w.Reserve(kConfigBytes + 1 + 8 + slots * SlotBytes(width));
  w.U32(params_.num_vertices);
  w.Size(num_copies_);
  w.I64(params_.groups);
  w.Double(params_.base.epsilon);
  w.U64(params_.base.seed);
  w.Double(params_.f1_correction);
  w.U8(static_cast<std::uint8_t>(width));
  w.U64(slots);
  std::visit(
      [&](const auto& rows) {
        switch (width) {
          case SlotWidth::kInt16:
            WriteSlots<std::int16_t>(w, rows, 3 * num_copies_);
            break;
          case SlotWidth::kInt32:
            WriteSlots<std::int32_t>(w, rows, 3 * num_copies_);
            break;
          case SlotWidth::kDouble:
            WriteSlots<double>(w, rows, 3 * num_copies_);
            break;
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
  const std::uint8_t tag = r.U8();
  const std::size_t slots = params_.num_vertices * 3 * num_copies_;
  if (!r.ok() || tag > static_cast<std::uint8_t>(SlotWidth::kDouble) ||
      r.U64() != slots) {
    return r.Fail();
  }
  const auto width = static_cast<SlotWidth>(tag);
  const std::string_view payload = r.Bytes(slots * SlotBytes(width));
  if (!r.ok()) return false;
  // Everything is checked before the counter changes, so a refused blob
  // leaves it as it was.
  std::vector<std::uint32_t> bound;
  bool loaded = false;
  const std::size_t n = params_.num_vertices;
  switch (width) {
    case SlotWidth::kInt16:
      loaded = LoadSlots<std::int16_t>(payload, n, 3 * num_copies_, &bound,
                                       &rows_);
      break;
    case SlotWidth::kInt32:
      loaded = LoadSlots<std::int32_t>(payload, n, 3 * num_copies_, &bound,
                                       &rows_);
      break;
    case SlotWidth::kDouble:
      loaded = LoadSlots<double>(payload, n, 3 * num_copies_, &bound, &rows_);
      break;
  }
  if (!loaded) return r.Fail();
  row_bound_ = std::move(bound);
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
