#ifndef CYCLESTREAM_STREAM_FAULT_H_
#define CYCLESTREAM_STREAM_FAULT_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "stream/checkpoint.h"

namespace cyclestream {

/// Deterministic fault injector the stream driver consults. A FaultPlan
/// describes what goes wrong in one run — kill the process' run loop after
/// the Nth element, fail the Nth checkpoint write with a simulated EIO,
/// flip a byte or truncate the Nth written snapshot — so tests can sweep
/// kill points and corruption offsets and assert the recovery contract:
/// a killed-and-resumed run is bit-identical to an uninterrupted one, and
/// a damaged snapshot is always rejected.
///
/// The pass loop cuts its blocks at ElementsBeforeKill(), calls
/// OnElementsProcessed(n) after every delivered block and stops the run
/// (returning RunOutcome{completed = false}) when it returns true, so the
/// kill lands exactly after the Nth element; NextWriteFault() is consumed
/// once per checkpoint write.
class FaultPlan {
 public:
  /// Stop the run after `n` elements have been processed (counted across
  /// passes). 0 disables the kill.
  void KillAfterElements(std::uint64_t n) { kill_after_ = n; }

  /// Fail the `nth` checkpoint write (0-based) with a simulated EIO. The
  /// driver logs a warning, keeps the previous snapshot file, counts the
  /// failure, and continues the run.
  void FailCheckpointWrite(std::uint64_t nth) {
    Fault(nth).fail_io = true;
  }

  /// XOR-flip byte `byte_index` of the `nth` checkpoint write's encoded
  /// file. The write itself succeeds; the damage must be caught on load.
  void CorruptCheckpointByte(std::uint64_t nth, std::uint64_t byte_index) {
    Fault(nth).corrupt_byte = static_cast<std::int64_t>(byte_index);
  }

  /// Truncate the `nth` checkpoint write's encoded file to `size` bytes.
  void TruncateCheckpoint(std::uint64_t nth, std::uint64_t size) {
    Fault(nth).truncate_to = static_cast<std::int64_t>(size);
  }

  /// Seeded kill-point choice, uniform over [1, total]. Deterministic in
  /// (seed, total) so sweeps are reproducible.
  static std::uint64_t PickKillPoint(std::uint64_t seed, std::uint64_t total);

  // --- Driver hooks ---

  /// Elements the loop may still deliver before the kill point
  /// (UINT64_MAX when no kill is set).
  std::uint64_t ElementsBeforeKill() const {
    return kill_after_ == 0 ? std::numeric_limits<std::uint64_t>::max()
                            : kill_after_ - elements_seen_;
  }

  /// Advances the element counter by one delivered block of `n` elements;
  /// true once the kill point is reached.
  bool OnElementsProcessed(std::uint64_t n) {
    elements_seen_ += n;
    return kill_after_ != 0 && elements_seen_ >= kill_after_;
  }

  /// The fault (if any) to apply to the next checkpoint write.
  WriteFault NextWriteFault() {
    const std::uint64_t nth = writes_seen_++;
    if (nth < write_faults_.size()) return write_faults_[nth];
    return WriteFault{};
  }

  std::uint64_t elements_seen() const { return elements_seen_; }

 private:
  WriteFault& Fault(std::uint64_t nth) {
    if (write_faults_.size() <= nth) write_faults_.resize(nth + 1);
    return write_faults_[nth];
  }

  std::uint64_t kill_after_ = 0;
  std::uint64_t elements_seen_ = 0;
  std::uint64_t writes_seen_ = 0;
  std::vector<WriteFault> write_faults_;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_FAULT_H_
