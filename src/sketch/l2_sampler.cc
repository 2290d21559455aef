#include "sketch/l2_sampler.h"

#include <algorithm>
#include <cmath>

#include "hash/rng.h"
#include "util/check.h"
#include "util/serialize.h"

namespace cyclestream {

L2Sampler::L2Sampler(const Config& config, std::uint64_t seed)
    : config_(config),
      f2_(/*groups=*/9, /*per_group=*/64, seed ^ 0xf2f2f2f2ULL) {
  CHECK_GE(config.copies, 1u);
  CHECK_GT(config.epsilon, 0.0);
  std::uint64_t s = seed;
  std::vector<std::uint64_t> u_seeds(config.copies);
  copies_.reserve(config.copies);
  for (std::size_t c = 0; c < config.copies; ++c) {
    // Same seed chain as the historical per-copy construction: the scaling
    // hash draws first, then the copy's sketch.
    u_seeds[c] = SplitMix64(s);
    copies_.push_back(Copy{
        CountSketch(config.sketch_depth, config.sketch_width, SplitMix64(s)),
        0, 0.0, false});
  }
  u_bank_ = KWiseHashBank(/*k=*/2, u_seeds);
  unit_scratch_.resize(config.copies);
}

double L2Sampler::ClampedScale(double u) {
  // u in (0, 1]; clamp away from 0 so 1/√u stays finite.
  if (u < 1e-12) u = 1e-12;
  return 1.0 / std::sqrt(u);
}

double L2Sampler::ScaledWeight(std::size_t i, std::uint64_t key) const {
  return ClampedScale(u_bank_.ToUnit(i, key));
}

void L2Sampler::Update(std::uint64_t key, double delta) {
  f2_.Update(key, delta);
  u_bank_.ToUnitAll(key, unit_scratch_.data());
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    Copy& copy = copies_[c];
    const double scale = ClampedScale(unit_scratch_[c]);
    const double z = std::abs(copy.sketch.UpdateAndQuery(key, delta * scale));
    // Track the largest sketched |z|; refresh the stored value whenever the
    // current best key is touched again (its magnitude may have changed).
    if (!copy.has_candidate || z > copy.best_z || key == copy.best_key) {
      copy.best_key = key;
      copy.best_z = z;
      copy.has_candidate = true;
    }
  }
}

std::vector<L2Sampler::Sample> L2Sampler::DrawAll() const {
  std::vector<Sample> samples;
  const double f2 = std::max(EstimateF2(), 0.0);
  const double threshold = std::sqrt(f2 / config_.epsilon);
  for (std::size_t c = 0; c < copies_.size(); ++c) {
    const Copy& copy = copies_[c];
    if (!copy.has_candidate) continue;
    const double z = std::abs(copy.sketch.Query(copy.best_key));
    if (z >= threshold && threshold > 0.0) {
      const double scale = ScaledWeight(c, copy.best_key);
      samples.push_back(Sample{copy.best_key, z / scale});
    }
  }
  return samples;
}

std::optional<L2Sampler::Sample> L2Sampler::Draw() const {
  auto all = DrawAll();
  if (all.empty()) return std::nullopt;
  return all.front();
}

std::size_t L2Sampler::SpaceWords() const {
  // 2 words of u-hash coefficients per copy (the bank), plus each copy's
  // sketch and candidate bookkeeping — the same accounting as the historical
  // per-copy layout.
  std::size_t words = f2_.SpaceWords();
  for (const Copy& copy : copies_) {
    words += copy.sketch.SpaceWords() + 2 + 2;
  }
  return words;
}

void L2Sampler::SaveState(StateWriter& w) const {
  w.Size(config_.copies);
  w.Size(config_.sketch_depth);
  w.Size(config_.sketch_width);
  w.Double(config_.epsilon);
  u_bank_.SaveState(w);
  for (const Copy& copy : copies_) {
    copy.sketch.SaveState(w);
    w.U64(copy.best_key);
    w.Double(copy.best_z);
    w.Bool(copy.has_candidate);
  }
  f2_.SaveState(w);
}

bool L2Sampler::RestoreState(StateReader& r) {
  if (r.Size() != config_.copies || r.Size() != config_.sketch_depth ||
      r.Size() != config_.sketch_width || r.Double() != config_.epsilon) {
    return r.Fail();
  }
  if (!u_bank_.RestoreState(r)) return false;
  // Copy sketches restore in place; their RestoreState verifies shape and
  // hash banks before mutating, so a mismatch part-way through can only
  // leave earlier (valid) copies restored — and the driver discards the
  // whole algorithm on any restore failure anyway.
  for (Copy& copy : copies_) {
    if (!copy.sketch.RestoreState(r)) return false;
    copy.best_key = r.U64();
    copy.best_z = r.Double();
    copy.has_candidate = r.Bool();
  }
  if (!r.ok()) return false;
  return f2_.RestoreState(r);
}

}  // namespace cyclestream
