#ifndef CYCLESTREAM_SKETCH_COUNT_SKETCH_H_
#define CYCLESTREAM_SKETCH_COUNT_SKETCH_H_

#include <cstdint>
#include <vector>

#include "hash/kwise_bank.h"

namespace cyclestream {

class StateWriter;
class StateReader;

/// CountSketch (Charikar–Chen–Farach-Colton): `depth` rows of `width`
/// buckets. Each row hashes a key to a bucket (2-wise) and a sign (4-wise);
/// Query returns the median over rows of sign·bucket, an unbiased estimate
/// of x[key] with error O(√(F₂/width)) per row. Supports turnstile updates.
///
/// The per-row bucket and sign hashes live in two KWiseHashBanks so an
/// update is two batched sweeps instead of 2·depth scalar hash calls. When
/// `width` is a power of two the bucket reduction uses a mask instead of a
/// division — bit-identical, since h % 2^b == h & (2^b − 1). Query and
/// UpdateAndQuery use internal scratch buffers, so an instance must not be
/// shared across threads without external synchronization.
class CountSketch {
 public:
  CountSketch(std::size_t depth, std::size_t width, std::uint64_t seed);

  /// x[key] += delta.
  void Update(std::uint64_t key, double delta);

  /// Median-over-rows point estimate of x[key].
  double Query(std::uint64_t key) const;

  /// Update followed by Query of the same key, sharing one round of hash
  /// evaluations. Exactly equal to Update(key, delta); Query(key).
  double UpdateAndQuery(std::uint64_t key, double delta);

  /// Space in words: counters plus hash coefficients (4 words per row-hash,
  /// the historical accounting — kept so reported space is unchanged).
  std::size_t SpaceWords() const { return table_.size() + 8 * depth_; }

  std::size_t depth() const { return depth_; }
  std::size_t width() const { return width_; }

  /// Checkpoint serialization: the counter table round-trips; shape and
  /// hash banks are written for verification and RestoreState rejects a
  /// mismatched snapshot without mutating.
  void SaveState(StateWriter& w) const;
  bool RestoreState(StateReader& r);

 private:
  /// Buckets/signs for `key` into the scratch arrays; returns nothing —
  /// bucket_scratch_[r] is the row-r bucket index, sign_scratch_[r] the hash
  /// value whose low bit is the sign.
  void HashKey(std::uint64_t key) const;

  /// Median over row_scratch_[0..depth); clobbers row_scratch_.
  double MedianOfRows() const;

  std::size_t depth_;
  std::size_t width_;
  std::uint64_t mask_ = 0;             // width−1 when width is a power of 2.
  KWiseHashBank bucket_hashes_;        // One per row (2-wise).
  KWiseHashBank sign_hashes_;          // One per row (4-wise).
  std::vector<double> table_;          // depth × width, row-major.
  mutable std::vector<std::uint64_t> bucket_scratch_;
  mutable std::vector<std::uint64_t> sign_scratch_;
  mutable std::vector<double> row_scratch_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_SKETCH_COUNT_SKETCH_H_
