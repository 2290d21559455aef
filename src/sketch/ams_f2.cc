#include "sketch/ams_f2.h"

#include "hash/rng.h"
#include "sketch/median_of_means.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

AmsF2::AmsF2(std::size_t groups, std::size_t per_group, std::uint64_t seed)
    : groups_(groups) {
  CHECK_GE(groups, 1u);
  CHECK_GE(per_group, 1u);
  const std::size_t total = groups * per_group;
  std::uint64_t s = seed;
  std::vector<std::uint64_t> seeds(total);
  for (std::size_t i = 0; i < total; ++i) seeds[i] = SplitMix64(s);
  signs_ = KWiseHashBank(/*k=*/4, seeds);
  counters_.assign(total, 0.0);
}

void AmsF2::Update(std::uint64_t key, double delta) {
  signs_.AccumulateSigned(key, delta, counters_.data());
}

double AmsF2::Estimate() const {
  square_scratch_.resize(counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    square_scratch_[i] = counters_[i] * counters_[i];
  }
  return MedianOfMeans(square_scratch_, groups_);
}

void AmsF2::SaveState(StateWriter& w) const {
  w.Size(groups_);
  signs_.SaveState(w);
  w.Vec(counters_);
}

bool AmsF2::RestoreState(StateReader& r) {
  if (r.Size() != groups_) return r.Fail();
  if (!signs_.RestoreState(r)) return false;
  std::vector<double> counters;
  if (!r.Vec(&counters)) return false;
  if (counters.size() != counters_.size()) return r.Fail();
  counters_ = std::move(counters);
  return true;
}

}  // namespace cyclestream
