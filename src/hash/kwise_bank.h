#ifndef CYCLESTREAM_HASH_KWISE_BANK_H_
#define CYCLESTREAM_HASH_KWISE_BANK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hash/kwise.h"

namespace cyclestream {

class StateWriter;
class StateReader;

/// A bank of N independent k-wise hashes evaluated together.
///
/// Every sketch in this library runs many independent copies of the same
/// estimator, and each stream element pays one polynomial-hash evaluation
/// *per copy*. Evaluating the copies one at a time through a
/// std::vector<KWiseHash> costs an input reduction (x mod p) per copy and a
/// pointer chase into each hash's own coefficient vector. The bank stores
/// the coefficients of all N hashes coefficient-major in one flat array
/// (coeffs_[j·N + i] = c_j of hash i), reduces the input once, and runs the
/// shared Horner recurrence as k−1 contiguous sweeps over N-length rows —
/// a layout the compiler can keep in cache and vectorize.
///
/// Bit-identical contract: hash i of a bank built from seeds[i] computes
/// exactly the same values as KWiseHash(k, seeds[i]) — the same rejection-
/// sampled coefficients, the same field operations (hash/mersenne.h), the
/// same canonical input reduction. EvalAll(x)[i] == KWiseHash(k, seeds[i])(x)
/// for every x, enforced by kwise_bank_test.
class KWiseHashBank {
 public:
  static constexpr std::uint64_t kPrime = KWiseHash::kPrime;

  KWiseHashBank() = default;

  /// Builds N = seeds.size() hashes; hash i draws its coefficients from
  /// seeds[i] exactly as KWiseHash(k, seeds[i]) would. Requires k >= 1.
  KWiseHashBank(int k, std::span<const std::uint64_t> seeds);

  std::size_t size() const { return n_; }
  int k() const { return k_; }

  /// out[i] = h_i(x) ∈ [0, p) for all i. `out` must hold size() entries.
  void EvalAll(std::uint64_t x, std::uint64_t* out) const;

  /// out[x·size() + i] = ±1 from the low bit of h_i(x) (odd → +1),
  /// matching KWiseHash::Sign, for every x in [0, count). Walks x by
  /// forward differences (DESIGN.md §8): k−1 modular adds per entry and
  /// no multiplies, exact in GF(p). Requires count <= p.
  void SignTable(std::uint64_t count, signed char* out) const;

  /// The same signs as SignTable, one bit each: bit i % 64 of
  /// out[x·stride + i/64] is 1 iff sign_i(x) = −1, for every x in
  /// [0, count). Each row's ⌈size()/64⌉ words are written whole (bits past
  /// size() are 0); words from there up to `stride` are left untouched, so
  /// two banks can interleave their rows in one table. Requires
  /// stride >= ⌈size()/64⌉ and count <= p.
  void SignBits(std::uint64_t count, std::size_t stride,
                std::uint64_t* out) const;

  /// out[i] = h_i(x) / p ∈ [0, 1), matching KWiseHash::ToUnit.
  void ToUnitAll(std::uint64_t x, double* out) const;

  /// counters[i] += delta · sign_i(x) for all i — the fused AMS update.
  /// The Horner tiles feed the counters directly; no scratch needed.
  void AccumulateSigned(std::uint64_t x, double delta, double* counters) const;

  /// Scalar evaluation of a single member (for cold paths like query-time
  /// re-derivation of one copy's randomness). Identical value to EvalAll[i].
  std::uint64_t Eval(std::size_t i, std::uint64_t x) const;

  double ToUnit(std::size_t i, std::uint64_t x) const {
    return static_cast<double>(Eval(i, x)) / static_cast<double>(kPrime);
  }

  /// Number of 64-bit words of state (for space accounting): k per hash.
  std::size_t SpaceWords() const { return coeffs_.size(); }

  /// Checkpoint serialization. The bank is immutable after construction, so
  /// RestoreState into a bank rebuilt from the same seeds acts as a config
  /// verification: it fails (without mutating) if (k, n, coefficients)
  /// differ from the snapshot. Restoring into a default-constructed bank
  /// adopts the serialized coefficients.
  void SaveState(StateWriter& w) const;
  bool RestoreState(StateReader& r);

 private:
  /// The forward-difference walk behind SignTable and SignBits: calls
  /// emit(x, h) for x = 0, 1, …, count − 1, with h[i] = h_i(x) canonical.
  template <typename EmitRow>
  void WalkRows(std::uint64_t count, EmitRow&& emit) const;

  int k_ = 0;
  std::size_t n_ = 0;
  std::vector<std::uint64_t> coeffs_;  // coeffs_[j * n_ + i] = c_j of hash i.
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_HASH_KWISE_BANK_H_
