#ifndef CYCLESTREAM_SKETCH_AMS_F2_H_
#define CYCLESTREAM_SKETCH_AMS_F2_H_

#include <cstdint>
#include <vector>

#include "hash/kwise_bank.h"

namespace cyclestream {

class StateWriter;
class StateReader;

/// Alon–Matias–Szegedy F₂ sketch over a vector x indexed by 64-bit keys and
/// updated by (key, delta) increments (deltas may be negative — turnstile).
///
/// Each basic estimator keeps Z = Σ_i σ(i)·x_i with a 4-wise independent
/// sign σ; Z² is an unbiased estimate of F₂(x) with variance ≤ 2·F₂².
/// The sketch runs `groups` × `per_group` independent estimators and returns
/// the median of the group means: a (1+γ) approximation needs
/// per_group = O(1/γ²) and groups = O(log 1/δ).
///
/// The sign hashes of all estimators live in one KWiseHashBank, so an
/// Update is a single batched polynomial sweep instead of one hash call per
/// estimator. Outputs are bit-identical to the per-copy formulation (the
/// bank's contract). Update/Estimate use internal scratch buffers, so a
/// sketch instance must not be shared across threads without external
/// synchronization (the parallel layer's one-instance-per-trial contract).
class AmsF2 {
 public:
  AmsF2(std::size_t groups, std::size_t per_group, std::uint64_t seed);

  /// x[key] += delta.
  void Update(std::uint64_t key, double delta);

  /// Median-of-means estimate of F₂(x).
  double Estimate() const;

  /// Space in words: one counter plus one 4-wise hash (4 coefficients) per
  /// basic estimator.
  std::size_t SpaceWords() const { return counters_.size() * 5; }

  std::size_t groups() const { return groups_; }

  /// Checkpoint serialization: the counters round-trip; the sign bank is
  /// written for verification and RestoreState rejects (without mutating)
  /// a snapshot whose configuration differs from this sketch's.
  void SaveState(StateWriter& w) const;
  bool RestoreState(StateReader& r);

 private:
  std::size_t groups_;
  KWiseHashBank signs_;            // One 4-wise hash per basic estimator.
  std::vector<double> counters_;   // Z per basic estimator.
  // Reusable scratch (no per-call allocation on the estimate path).
  mutable std::vector<double> square_scratch_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_SKETCH_AMS_F2_H_
