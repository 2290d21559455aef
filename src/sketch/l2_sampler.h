#ifndef CYCLESTREAM_SKETCH_L2_SAMPLER_H_
#define CYCLESTREAM_SKETCH_L2_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "hash/kwise_bank.h"
#include "sketch/ams_f2.h"
#include "sketch/count_sketch.h"

namespace cyclestream {

class StateWriter;
class StateReader;

/// Approximate ℓ₂ sampler in the style of Jowhari–Saglam–Tardos: draws a
/// coordinate i with probability ≈ x_i² / F₂(x) from a turnstile stream of
/// (key, delta) updates, and reports an estimate of x_i.
///
/// Mechanism (per independent copy): each coordinate is scaled by
/// z_i = x_i / √u_i where u_i ∈ (0,1) is a hash of i. Then
/// P[z_i² ≥ F₂(x)/ε] = P[u_i ≤ ε·x_i²/F₂] = ε·x_i²/F₂ — so conditioned on a
/// copy producing exactly one coordinate above the threshold, that
/// coordinate is an ℓ₂ sample. A CountSketch of z recovers the passing
/// coordinate; an AMS sketch of x supplies F₂. Running O(ε⁻¹·log(1/δ))
/// copies makes at least one succeed with probability 1-δ.
///
/// Candidate tracking: recovering argmax|z| from a CountSketch needs a
/// candidate set; we track, per copy, the key whose sketched |ẑ| is largest
/// at any update touching it (standard practical heavy-hitter bookkeeping;
/// exhaustive decoding would give the same answer at higher cost).
///
/// Hot-path layout: the per-copy scaling hashes u_i live in one
/// KWiseHashBank (one batched sweep per update instead of one hash call per
/// copy), and each copy's sketch touch is a fused UpdateAndQuery (one round
/// of bucket/sign hashing instead of two). Outputs are bit-identical to the
/// scalar per-copy formulation.
class L2Sampler {
 public:
  struct Config {
    std::size_t copies = 64;        // Independent repetition count.
    std::size_t sketch_depth = 5;   // CountSketch rows per copy.
    std::size_t sketch_width = 256; // CountSketch buckets per row.
    double epsilon = 0.25;          // Threshold slack (smaller = purer).
  };

  L2Sampler(const Config& config, std::uint64_t seed);

  /// x[key] += delta.
  void Update(std::uint64_t key, double delta);

  struct Sample {
    std::uint64_t key = 0;
    double value_estimate = 0.0;  // Estimate of x[key].
  };

  /// Returns a sample from the first successful copy, or nullopt if every
  /// copy failed (no coordinate passed its threshold).
  std::optional<Sample> Draw() const;

  /// All successful copies' samples (useful when many samples are needed;
  /// copies are independent).
  std::vector<Sample> DrawAll() const;

  /// Estimate of F₂(x) from the shared AMS sketch.
  double EstimateF2() const { return f2_.Estimate(); }

  std::size_t SpaceWords() const;

  /// Checkpoint serialization: per-copy sketches and candidates plus the
  /// shared F₂ sketch round-trip; config and the scaling bank are written
  /// for verification and a mismatch is rejected without mutating.
  void SaveState(StateWriter& w) const;
  bool RestoreState(StateReader& r);

 private:
  struct Copy {
    CountSketch sketch;     // Sketch of the scaled vector z.
    std::uint64_t best_key = 0;
    double best_z = 0.0;    // |ẑ(best_key)| at its last touch.
    bool has_candidate = false;
  };

  /// 1/√u for copy `i` at `key` (clamped away from u = 0).
  double ScaledWeight(std::size_t i, std::uint64_t key) const;
  static double ClampedScale(double u);

  Config config_;
  KWiseHashBank u_bank_;  // Scaling randomness u_i per copy (k=2 suffices).
  std::vector<Copy> copies_;
  AmsF2 f2_;
  std::vector<double> unit_scratch_;  // Per-update u values, all copies.
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_SKETCH_L2_SAMPLER_H_
