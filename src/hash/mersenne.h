#ifndef CYCLESTREAM_HASH_MERSENNE_H_
#define CYCLESTREAM_HASH_MERSENNE_H_

#include <cstdint>

namespace cyclestream {

/// Arithmetic over GF(p) with p = 2^61 - 1, shared by the scalar k-wise hash
/// and the batched hash bank. Keeping one definition guarantees the bank is
/// evaluating the *same* field operations as the scalar reference, which is
/// what the bit-identical contract of KWiseHashBank rests on.
inline constexpr std::uint64_t kMersennePrime61 = (1ULL << 61) - 1;

/// a * b mod p via a 128-bit product and the identity 2^61 ≡ 1 (mod p).
/// Requires a, b < p; the result is the canonical residue in [0, p).
inline std::uint64_t MulMod61(std::uint64_t a, std::uint64_t b) {
  const __uint128_t prod = static_cast<__uint128_t>(a) * b;
  const std::uint64_t lo = static_cast<std::uint64_t>(prod) & kMersennePrime61;
  const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t sum = lo + hi;
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// a + b mod p. Requires a, b < p (so the 64-bit sum cannot overflow).
inline std::uint64_t AddMod61(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum = a + b;
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// a − b mod p. Requires a, b < p.
inline std::uint64_t SubMod61(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kMersennePrime61 - b;
}

/// a + b mod p without a compare, for sweeps the compiler should vectorize
/// (baseline SSE2 has no unsigned 64-bit compare): a + b − p wraps below
/// zero exactly when a + b < p, which sets its top bit, and then p is added
/// back. Requires a, b < p; the result is the canonical residue.
inline std::uint64_t AddMod61Branchless(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum = a + b - kMersennePrime61;
  sum += kMersennePrime61 & (0 - (sum >> 63));
  return sum;
}

/// Canonical residue of an arbitrary 64-bit value: x = hi·2^61 + lo with
/// 2^61 ≡ 1 folds to hi + lo < 2p, so one conditional subtract finishes.
/// Equals x % p for every x, without the division.
inline std::uint64_t ReduceMod61(std::uint64_t x) {
  std::uint64_t sum = (x & kMersennePrime61) + (x >> 61);
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// One *lazy* Horner stage acc·x + c (mod p) for hot batched sweeps: two
/// unconditional folds, no compare/subtract, so the compiler emits a pure
/// straight-line multiply-fold chain. The accumulator is relaxed — congruent
/// to the true residue but possibly ≥ p.
///
/// Bounds: requires acc < 2^62 and x, c < p. Then acc·x < 2^123, the first
/// fold gives t < 2^62 + 2^61 + 2^61 < 2^63, and the second fold returns a
/// value < 2^61 + 4 < 2^62 — the invariant is self-sustaining across
/// stages. Feed the final accumulator through CanonicalizeMod61 before
/// using the value.
inline std::uint64_t HornerStepLazy61(std::uint64_t acc, std::uint64_t x,
                                      std::uint64_t c) {
  const __uint128_t prod = static_cast<__uint128_t>(acc) * x;
  const std::uint64_t t =
      (static_cast<std::uint64_t>(prod) & kMersennePrime61) +
      static_cast<std::uint64_t>(prod >> 61) + c;
  return (t & kMersennePrime61) + (t >> 61);
}

/// Single-fold lazy Horner stage: one fold, no compare/subtract — two ALU
/// ops cheaper than HornerStepLazy61, but the accumulator grows across
/// stages. Safe ONLY for chains of at most 3 stages seeded from a canonical
/// coefficient (i.e. k ≤ 4): with acc₀ < p the stage outputs are bounded by
/// t₁ < 2^63, t₂ < 2^63 + 2^62, t₃ ≤ 2^64 − 4 — the last one just fits in
/// 64 bits, and a 4th stage would overflow. Canonicalize before use.
inline std::uint64_t HornerStepLazy1Fold61(std::uint64_t acc, std::uint64_t x,
                                           std::uint64_t c) {
  const __uint128_t prod = static_cast<__uint128_t>(acc) * x;
  return (static_cast<std::uint64_t>(prod) & kMersennePrime61) +
         static_cast<std::uint64_t>(prod >> 61) + c;
}

/// Collapses a lazy accumulator (any 64-bit value) to the canonical residue
/// in [0, p) — the same value the strict AddMod61/MulMod61 chain produces,
/// which is what the hash bank's bit-identical contract requires.
inline std::uint64_t CanonicalizeMod61(std::uint64_t acc) {
  std::uint64_t sum = (acc & kMersennePrime61) + (acc >> 61);
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

}  // namespace cyclestream

#endif  // CYCLESTREAM_HASH_MERSENNE_H_
