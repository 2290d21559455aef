#include "sketch/count_sketch.h"

#include <algorithm>

#include "hash/rng.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

CountSketch::CountSketch(std::size_t depth, std::size_t width,
                         std::uint64_t seed)
    : depth_(depth), width_(width) {
  CHECK_GE(depth, 1u);
  CHECK_GE(width, 1u);
  if ((width & (width - 1)) == 0) mask_ = width - 1;
  std::uint64_t s = seed;
  std::vector<std::uint64_t> bucket_seeds(depth);
  std::vector<std::uint64_t> sign_seeds(depth);
  for (std::size_t r = 0; r < depth; ++r) {
    // Same interleaved seed chain as the historical per-row construction:
    // bucket seed first, then sign seed, row by row.
    bucket_seeds[r] = SplitMix64(s);
    sign_seeds[r] = SplitMix64(s);
  }
  bucket_hashes_ = KWiseHashBank(/*k=*/2, bucket_seeds);
  sign_hashes_ = KWiseHashBank(/*k=*/4, sign_seeds);
  table_.assign(depth * width, 0.0);
  bucket_scratch_.resize(depth);
  sign_scratch_.resize(depth);
  row_scratch_.resize(depth);
}

void CountSketch::HashKey(std::uint64_t key) const {
  bucket_hashes_.EvalAll(key, bucket_scratch_.data());
  sign_hashes_.EvalAll(key, sign_scratch_.data());
  if (mask_ != 0) {
    for (std::size_t r = 0; r < depth_; ++r) bucket_scratch_[r] &= mask_;
  } else {
    for (std::size_t r = 0; r < depth_; ++r) bucket_scratch_[r] %= width_;
  }
}

void CountSketch::Update(std::uint64_t key, double delta) {
  HashKey(key);
  for (std::size_t r = 0; r < depth_; ++r) {
    table_[r * width_ + bucket_scratch_[r]] +=
        (sign_scratch_[r] & 1ULL) ? delta : -delta;
  }
}

double CountSketch::MedianOfRows() const {
  std::nth_element(row_scratch_.begin(),
                   row_scratch_.begin() + row_scratch_.size() / 2,
                   row_scratch_.end());
  return row_scratch_[row_scratch_.size() / 2];
}

double CountSketch::Query(std::uint64_t key) const {
  HashKey(key);
  for (std::size_t r = 0; r < depth_; ++r) {
    const double cell = table_[r * width_ + bucket_scratch_[r]];
    row_scratch_[r] = (sign_scratch_[r] & 1ULL) ? cell : -cell;
  }
  return MedianOfRows();
}

double CountSketch::UpdateAndQuery(std::uint64_t key, double delta) {
  HashKey(key);
  for (std::size_t r = 0; r < depth_; ++r) {
    double& cell = table_[r * width_ + bucket_scratch_[r]];
    if (sign_scratch_[r] & 1ULL) {
      cell += delta;
      row_scratch_[r] = cell;
    } else {
      cell += -delta;
      row_scratch_[r] = -cell;
    }
  }
  return MedianOfRows();
}

void CountSketch::SaveState(StateWriter& w) const {
  w.Size(depth_);
  w.Size(width_);
  bucket_hashes_.SaveState(w);
  sign_hashes_.SaveState(w);
  w.Vec(table_);
}

bool CountSketch::RestoreState(StateReader& r) {
  if (r.Size() != depth_ || r.Size() != width_) return r.Fail();
  if (!bucket_hashes_.RestoreState(r) || !sign_hashes_.RestoreState(r)) {
    return false;
  }
  std::vector<double> table;
  if (!r.Vec(&table)) return false;
  if (table.size() != table_.size()) return r.Fail();
  table_ = std::move(table);
  return true;
}

}  // namespace cyclestream
