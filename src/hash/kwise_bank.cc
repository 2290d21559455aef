#include "hash/kwise_bank.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "hash/mersenne.h"
#include "hash/rng.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

KWiseHashBank::KWiseHashBank(int k, std::span<const std::uint64_t> seeds)
    : k_(k), n_(seeds.size()) {
  CHECK_GE(k, 1);
  coeffs_.resize(static_cast<std::size_t>(k) * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    // Identical coefficient derivation to KWiseHash(k, seeds[i]): a
    // splitmix64 chain per hash, rejection-sampled into [0, p).
    std::uint64_t s = seeds[i];
    for (int j = 0; j < k; ++j) {
      std::uint64_t c;
      do {
        c = SplitMix64(s) & ((1ULL << 62) - 1);
      } while (c >= kPrime);
      coeffs_[static_cast<std::size_t>(j) * n_ + i] = c;
    }
  }
}

// All batched sweeps below run the Horner recurrence with *lazy* modular
// stages (HornerStepLazy61: two unconditional folds, no compare/subtract)
// and canonicalize only when a value is consumed. The canonical result is
// identical to the strict AddMod61(MulMod61(...)) chain — both compute the
// same residue mod p and CanonicalizeMod61 picks the unique representative
// in [0, p) — so the bit-identical contract is unaffected.
//
// The accumulator is seeded at c_{k-1}: the scalar reference starts from
// acc = 0 and its first step reduces to acc = c_{k-1}, so the recurrences
// coincide step for step.

void KWiseHashBank::EvalAll(std::uint64_t x, std::uint64_t* out) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  const std::uint64_t* top = coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n;
  for (std::size_t i = 0; i < n; ++i) out[i] = top[i];
  for (int j = k_ - 2; j >= 0; --j) {
    const std::uint64_t* row = coeffs_.data() + static_cast<std::size_t>(j) * n;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = HornerStepLazy61(out[i], xm, row[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = CanonicalizeMod61(out[i]);
}

// Forward differences (DESIGN.md §8): for h of degree k−1, row j of the
// table holds Δ^j h(x), where Δf(x) = f(x+1) − f(x), and Δ^{k−1} h is
// constant. Stepping x → x+1 is row_j += row_{j+1} for j = 0..k−2 in
// ascending order, so each row adds the next row's value at x before that
// row is stepped. Every entry stays a canonical residue, so row 0 is
// exactly h(x) and its low bit is the Horner sign.
template <typename EmitRow>
void KWiseHashBank::WalkRows(std::uint64_t count, EmitRow&& emit) const {
  CHECK_LE(count, kPrime);
  const std::size_t n = n_;
  const std::size_t k = static_cast<std::size_t>(k_);
  std::vector<std::uint64_t> diff(k * n);
  for (std::size_t i = 0; i < n; ++i) {
    // Row j = Δ^j h(0): h(0..k−1), then k−1 rounds of in-place backward
    // differences (round r leaves Δ^r h(0) in row r).
    for (std::size_t j = 0; j < k; ++j) diff[j * n + i] = Eval(i, j);
    for (std::size_t r = 1; r < k; ++r) {
      for (std::size_t j = k - 1; j >= r; --j) {
        diff[j * n + i] = SubMod61(diff[j * n + i], diff[(j - 1) * n + i]);
      }
    }
  }
  for (std::uint64_t x = 0; x < count; ++x) {
    emit(x, static_cast<const std::uint64_t*>(diff.data()));
    for (std::size_t j = 0; j + 1 < k; ++j) {
      std::uint64_t* row = diff.data() + j * n;
      const std::uint64_t* next = row + n;
      for (std::size_t i = 0; i < n; ++i) {
        row[i] = AddMod61Branchless(row[i], next[i]);
      }
    }
  }
}

void KWiseHashBank::SignTable(std::uint64_t count, signed char* out) const {
  // The emitters copy their captures into locals: a byte store could alias
  // the closure, and gcc does not vectorize a loop whose bound it must
  // reload after every store.
  WalkRows(count, [out, len = n_](std::uint64_t x, const std::uint64_t* h) {
    const std::size_t n = len;
    signed char* row_out = out + x * n;
    for (std::size_t i = 0; i < n; ++i) {
      // Arithmetic, not a ternary, so the loop vectorizes.
      row_out[i] =
          static_cast<signed char>(2 * static_cast<int>(h[i] & 1ULL) - 1);
    }
  });
}

// Per x, the negative-sign flags go to a byte tile first (the same
// vectorized sweep as SignTable), then 8 bytes at a time into a bit byte:
// with byte j of v holding b_j ∈ {0, 1}, v · 0x0102040810204080 carries
// b_j to bit 56 + j and nothing else into bits 56..63, because the
// partial products b_j·2^(8j + 7m + 7) never overlap below bit 64.
void KWiseHashBank::SignBits(std::uint64_t count, std::size_t stride,
                             std::uint64_t* out) const {
  static_assert(std::endian::native == std::endian::little,
                "SignBits packs tile bytes in little-endian order");
  const std::size_t n = n_;
  const std::size_t words = (n + 63) / 64;
  CHECK_GE(stride, words);
  // Bytes past n stay 0, so the padding bits of the last word are 0.
  std::vector<std::uint8_t> tile(words * 64, 0);
  WalkRows(count, [out, stride, words, len = n, tile = tile.data()](
                      std::uint64_t x, const std::uint64_t* h) {
    const std::size_t n = len;
    std::uint8_t* neg = tile;
    for (std::size_t i = 0; i < n; ++i) {
      neg[i] = static_cast<std::uint8_t>((h[i] & 1ULL) ^ 1ULL);
    }
    std::uint64_t* row_out = out + x * stride;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t word = 0;
      for (std::size_t q = 0; q < 8; ++q) {
        std::uint64_t v;
        std::memcpy(&v, neg + 64 * w + 8 * q, sizeof(v));
        word |= ((v * 0x0102040810204080ULL) >> 56) << (8 * q);
      }
      row_out[w] = word;
    }
  });
}

void KWiseHashBank::ToUnitAll(std::uint64_t x, double* out) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  constexpr std::size_t kTile = 64;
  std::uint64_t acc[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    const std::uint64_t* top =
        coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n + base;
    for (std::size_t i = 0; i < len; ++i) acc[i] = top[i];
    for (int j = k_ - 2; j >= 0; --j) {
      const std::uint64_t* row =
          coeffs_.data() + static_cast<std::size_t>(j) * n + base;
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] = HornerStepLazy61(acc[i], xm, row[i]);
      }
    }
    for (std::size_t i = 0; i < len; ++i) {
      out[base + i] = static_cast<double>(CanonicalizeMod61(acc[i])) /
                      static_cast<double>(kPrime);
    }
  }
}

void KWiseHashBank::AccumulateSigned(std::uint64_t x, double delta,
                                     double* counters) const {
  const std::uint64_t xm = ReduceMod61(x);
  const std::size_t n = n_;
  // ±delta by sign-bit flip: IEEE negation is exact, so this matches the
  // branchy (h & 1) ? +delta : -delta element for element — without a
  // data-dependent branch on an effectively random hash bit.
  std::uint64_t delta_bits;
  std::memcpy(&delta_bits, &delta, sizeof(delta));
  if (k_ == 4) {
    // The AMS sign-hash case. Fully fused single pass: 3 single-fold lazy
    // Horner stages per element (the k = 4 chain is exactly the depth where
    // single folds still fit in 64 bits — see HornerStepLazy1Fold61), then
    // canonicalize and apply the sign straight to the counter.
    const std::uint64_t* c3 = coeffs_.data() + 3 * n;
    const std::uint64_t* c2 = coeffs_.data() + 2 * n;
    const std::uint64_t* c1 = coeffs_.data() + 1 * n;
    const std::uint64_t* c0 = coeffs_.data();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t acc = c3[i];
      acc = HornerStepLazy1Fold61(acc, xm, c2[i]);
      acc = HornerStepLazy1Fold61(acc, xm, c1[i]);
      acc = HornerStepLazy1Fold61(acc, xm, c0[i]);
      const std::uint64_t odd = CanonicalizeMod61(acc) & 1ULL;
      const std::uint64_t bits = delta_bits ^ ((odd ^ 1ULL) << 63);
      double signed_delta;
      std::memcpy(&signed_delta, &bits, sizeof(signed_delta));
      counters[i] += signed_delta;
    }
    return;
  }
  // General k: Horner tiles feed the counter updates directly, so the hash
  // values never round-trip through heap scratch.
  constexpr std::size_t kTile = 64;
  std::uint64_t acc[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    const std::size_t len = std::min(kTile, n - base);
    const std::uint64_t* top =
        coeffs_.data() + static_cast<std::size_t>(k_ - 1) * n + base;
    for (std::size_t i = 0; i < len; ++i) acc[i] = top[i];
    for (int j = k_ - 2; j >= 0; --j) {
      const std::uint64_t* row =
          coeffs_.data() + static_cast<std::size_t>(j) * n + base;
      for (std::size_t i = 0; i < len; ++i) {
        acc[i] = HornerStepLazy61(acc[i], xm, row[i]);
      }
    }
    double* c = counters + base;
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t odd = CanonicalizeMod61(acc[i]) & 1ULL;
      const std::uint64_t bits = delta_bits ^ ((odd ^ 1ULL) << 63);
      double signed_delta;
      std::memcpy(&signed_delta, &bits, sizeof(signed_delta));
      c[i] += signed_delta;
    }
  }
}

std::uint64_t KWiseHashBank::Eval(std::size_t i, std::uint64_t x) const {
  const std::uint64_t xm = ReduceMod61(x);
  std::uint64_t acc = 0;
  for (int j = k_ - 1; j >= 0; --j) {
    acc = AddMod61(MulMod61(acc, xm),
                   coeffs_[static_cast<std::size_t>(j) * n_ + i]);
  }
  return acc;
}

void KWiseHashBank::SaveState(StateWriter& w) const {
  w.U32(static_cast<std::uint32_t>(k_));
  w.Size(n_);
  w.Vec(coeffs_);
}

bool KWiseHashBank::RestoreState(StateReader& r) {
  const int k = static_cast<int>(r.U32());
  const std::size_t n = r.Size();
  std::vector<std::uint64_t> coeffs;
  if (!r.Vec(&coeffs)) return false;
  if (coeffs.size() != static_cast<std::size_t>(k) * n) return r.Fail();
  if (n_ != 0 || k_ != 0) {
    // Constructed bank: the snapshot must describe this exact bank.
    if (k != k_ || n != n_ || coeffs != coeffs_) return r.Fail();
    return true;
  }
  k_ = k;
  n_ = n;
  coeffs_ = std::move(coeffs);
  return true;
}

}  // namespace cyclestream
