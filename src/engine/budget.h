#ifndef CYCLESTREAM_ENGINE_BUDGET_H_
#define CYCLESTREAM_ENGINE_BUDGET_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "engine/query.h"
#include "stream/space.h"

namespace cyclestream::engine {

/// Memory policy for one engine batch, in words (the same unit SpaceTracker
/// and AuditSpace use). Zero means "no cap".
struct BudgetPolicy {
  /// Upper bound on any single query's declared budget. A query declaring
  /// more can never run under this policy → rejected outright.
  std::size_t per_query_words = 0;
  /// Upper bound on the sum of declared budgets running concurrently. A
  /// query that fits the policy but not the currently free headroom is
  /// queued to a later wave (each wave is one more physical read of the
  /// stream, traded for staying under the cap).
  std::size_t aggregate_words = 0;
};

/// What the admission layer decided for one offered query.
enum class AdmissionOutcome {
  kAdmitted,  // Reserved; runs in the current wave.
  kQueued,    // Fits the policy, not the current headroom; later wave.
  kRejected,  // Can never fit this policy; never runs.
};

std::string_view AdmissionOutcomeName(AdmissionOutcome outcome);

/// Reservation bookkeeping against a BudgetPolicy. Reservations are held in
/// a SpaceTracker so the engine's own accounting is audited with the same
/// machinery as the algorithms it hosts: Offer() charges the declared words
/// on admission, Release() returns them when the query's wave completes.
///
/// Semantics (deterministic — pure function of policy + offer sequence):
///  - declared == 0 ("unbudgeted"): admitted freely when no aggregate cap is
///    configured; rejected under an aggregate cap (an unbudgeted query gives
///    the controller nothing to reserve, so admitting it would make the cap
///    unenforceable).
///  - declared > per_query_words (cap set): rejected.
///  - declared > aggregate_words (cap set): rejected — no wave can fit it.
///  - declared > free headroom under the aggregate cap: queued.
///  - otherwise: admitted, `declared` words reserved until Release().
class AdmissionController {
 public:
  explicit AdmissionController(const BudgetPolicy& policy);

  /// Decides the fate of a query declaring `declared_words`. Reserves on
  /// kAdmitted; no state change otherwise.
  AdmissionOutcome Offer(std::size_t declared_words);

  /// Returns an admitted query's reservation (call once per kAdmitted).
  /// The controller keeps a ledger of outstanding reservation sizes:
  /// releasing a size that was never admitted — or already released —
  /// aborts instead of silently corrupting the aggregate headroom all
  /// later waves admit against.
  void Release(std::size_t declared_words);

  const BudgetPolicy& policy() const { return policy_; }
  std::size_t reserved_words() const { return tracker_.Current(); }
  std::size_t peak_reserved_words() const { return tracker_.Peak(); }
  std::size_t outstanding_reservations() const { return ledger_.size(); }

 private:
  BudgetPolicy policy_;
  SpaceTracker tracker_;
  /// Sizes of the live reservations, one entry per admitted-and-unreleased
  /// query. A multiset because distinct queries may declare equal budgets.
  std::multiset<std::size_t> ledger_;
};

/// One wave of an admission plan.
struct PlannedWave {
  /// Slots this wave runs, ascending.
  std::vector<std::size_t> admitted;
  /// Slots still pending after this wave's admissions, ascending — what
  /// a daemon manifest persists as its frontier.
  std::vector<std::size_t> queue;
};

/// The whole admission schedule of one batch.
struct WavePlan {
  std::vector<PlannedWave> waves;
  std::vector<std::size_t> rejected;  // Slots that never run, ascending.
  std::uint64_t queries_queued = 0;   // Slots admitted after wave 0.
  std::uint64_t budget_peak_words = 0;
};

/// Plans every wave of `specs` under `policy`: wave 0 offers every slot in
/// registration order, and each later wave re-offers the queue after the
/// previous wave's reservations are released. A wave releases its
/// reservations when it ends whether it completed or was poisoned, so the
/// schedule depends only on the declared budgets and the policy — the
/// broker and the sharded wave loop both run exactly this plan.
WavePlan PlanWaves(const std::vector<QuerySpec>& specs,
                   const BudgetPolicy& policy);

}  // namespace cyclestream::engine

#endif  // CYCLESTREAM_ENGINE_BUDGET_H_
