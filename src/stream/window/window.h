#ifndef CYCLESTREAM_STREAM_WINDOW_WINDOW_H_
#define CYCLESTREAM_STREAM_WINDOW_WINDOW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stream/dynamic/turnstile.h"

namespace cyclestream {

/// Time-decay layer over turnstile estimators (DESIGN.md §15). Both
/// wrappers host any TurnstileStreamAlgorithm and rely only on its
/// linearity: window estimates are MergeFrom folds of bucket-local
/// sketches, decay estimates are scheduled Rescale calls — no estimator
/// internals leak in. The two are mutually exclusive per query (the spec
/// layer validates).

/// Builds a fresh, empty estimator instance with the query's exact
/// result-affecting configuration. Called once per bucket opening and once
/// per Result(); must be deterministic (same instance state every call).
using TurnstileAlgorithmFactory =
    std::function<std::unique_ptr<TurnstileStreamAlgorithm>()>;

/// Sliding-window estimation via bucketed sketch instances: the stream is
/// cut into fixed-width buckets of w = window_edges / buckets updates
/// (divisibility is required — enforced at spec validation), each live
/// bucket owns a full sketch instance fed only its slice of the stream,
/// and Result() folds the live buckets (oldest → newest, via MergeFrom)
/// into a fresh instance, yielding the estimate over the suffix the
/// buckets cover. At most `buckets` buckets are live: opening bucket b
/// retires every bucket with index ≤ b − buckets, so the covered suffix
/// spans the last (buckets−1)·w + 1 ... buckets·w updates — the window is
/// exact whenever the stream position is a bucket multiple, and stale by
/// at most one bucket in between (the standard bucketed approximation; a
/// smooth-histogram refinement would vary bucket widths, which the exact
/// divisibility contract here deliberately trades away for bit-exact
/// determinism).
///
/// Determinism: bucket boundaries are fixed stream positions, retirement
/// is a pure function of the bucket index, fold order is fixed, and the
/// hosted sketches are exact-integer linear states — so window estimates
/// are bit-identical at any thread / shard / block-size configuration, and
/// after kill+resume at any point.
class SlidingWindowAlgorithm : public TurnstileStreamAlgorithm {
 public:
  /// `inner_id` is the hosted estimator's CheckpointId (the factory's
  /// product); it is baked into this wrapper's CheckpointId so snapshots
  /// never restore across estimator kinds.
  SlidingWindowAlgorithm(TurnstileAlgorithmFactory factory,
                         std::string_view inner_id,
                         std::uint64_t window_edges, std::uint64_t buckets);

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  /// Splits the block at bucket boundaries so bucket contents — and hence
  /// retirement points and every estimate — are independent of how the
  /// driver batches the stream.
  void ProcessUpdateBlock(int pass, std::span<const TurnstileUpdate> updates,
                          std::size_t base_position) override;
  void EndPass(int pass) override;
  Estimate Result() const override;
  std::string_view CheckpointId() const override { return checkpoint_id_; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;

  std::uint64_t window_edges() const { return window_edges_; }
  std::uint64_t buckets() const { return buckets_; }

 private:
  struct Bucket {
    std::uint64_t index = 0;
    std::unique_ptr<TurnstileStreamAlgorithm> alg;
  };

  /// Ensures the bucket owning `position` is open (retiring expired
  /// buckets); returns its algorithm.
  TurnstileStreamAlgorithm& BucketFor(std::uint64_t position);

  TurnstileAlgorithmFactory factory_;
  std::string checkpoint_id_;
  std::uint64_t window_edges_ = 0;
  std::uint64_t buckets_ = 0;
  std::uint64_t bucket_width_ = 0;
  std::vector<Bucket> live_;  // Ascending index; at most buckets_ entries.
};

/// Exponential-decay estimation via scheduled rescaling: before processing
/// position p where p > 0 and p % epoch_edges == 0, the hosted sketch is
/// multiplied by 2^(−decay_log2), so an update that is k epochs old
/// contributes with weight 2^(−k·decay_log2). The factor is an exact
/// power of two, and epochs are fixed stream positions, so blocks are
/// split at epoch boundaries and every slot sees the same operations in
/// the same order: the decayed state is bit-identical at any thread /
/// shard / block-size configuration. It is not always exact: the rescale
/// is exact until a value goes subnormal, but adding an update's ±1 to a
/// decayed `double` value rounds once the sum spans more than 53 bits
/// (at decay_log2 = 32, spec validation's cap, 1 + 2^−32 + 2^−64 after
/// three epochs already rounds to 1 + 2^−32). turnstile-f2-c4 counts
/// rescales in an exponent on its integer slots and moves to `double`
/// before any value could round, so it rounds exactly where an
/// all-`double` counter does (DESIGN.md §15.4).
class DecayAlgorithm : public TurnstileStreamAlgorithm {
 public:
  DecayAlgorithm(std::unique_ptr<TurnstileStreamAlgorithm> inner,
                 std::uint64_t epoch_edges, std::uint32_t decay_log2);

  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessUpdate(int pass, const TurnstileUpdate& u,
                     std::size_t position) override;
  void ProcessUpdateBlock(int pass, std::span<const TurnstileUpdate> updates,
                          std::size_t base_position) override;
  void EndPass(int pass) override;
  Estimate Result() const override { return inner_->Result(); }
  std::string_view CheckpointId() const override { return checkpoint_id_; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;

  std::uint64_t epoch_edges() const { return epoch_edges_; }
  std::uint32_t decay_log2() const { return decay_log2_; }

 private:
  /// Rescales if `position` sits on an epoch boundary (> 0).
  void MaybeDecayAt(std::uint64_t position);

  std::unique_ptr<TurnstileStreamAlgorithm> inner_;
  std::string checkpoint_id_;
  std::uint64_t epoch_edges_ = 0;
  std::uint32_t decay_log2_ = 0;
  double factor_ = 1.0;  // ldexp(1.0, -decay_log2), exact.
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_WINDOW_WINDOW_H_
