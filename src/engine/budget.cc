#include "engine/budget.h"

#include <numeric>
#include <utility>

#include "util/check.h"

namespace cyclestream::engine {

namespace {
constexpr std::string_view kReservedComponent = "reserved";
}  // namespace

std::string_view AdmissionOutcomeName(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted:
      return "admitted";
    case AdmissionOutcome::kQueued:
      return "queued";
    case AdmissionOutcome::kRejected:
      return "rejected";
  }
  CHECK(false) << "unreachable AdmissionOutcome";
  return "";
}

AdmissionController::AdmissionController(const BudgetPolicy& policy)
    : policy_(policy) {}

AdmissionOutcome AdmissionController::Offer(std::size_t declared_words) {
  if (declared_words == 0) {
    // Unbudgeted query: nothing to reserve. Fine without an aggregate cap;
    // under one, admitting it would make the cap unenforceable.
    return policy_.aggregate_words == 0 ? AdmissionOutcome::kAdmitted
                                        : AdmissionOutcome::kRejected;
  }
  if (policy_.per_query_words > 0 && declared_words > policy_.per_query_words) {
    return AdmissionOutcome::kRejected;
  }
  if (policy_.aggregate_words > 0) {
    if (declared_words > policy_.aggregate_words) {
      return AdmissionOutcome::kRejected;  // No wave can ever fit it.
    }
    if (tracker_.Current() + declared_words > policy_.aggregate_words) {
      return AdmissionOutcome::kQueued;
    }
  }
  tracker_.Charge(kReservedComponent, declared_words);
  ledger_.insert(declared_words);
  return AdmissionOutcome::kAdmitted;
}

void AdmissionController::Release(std::size_t declared_words) {
  if (declared_words == 0) return;  // Unbudgeted queries hold no reservation.
  const auto it = ledger_.find(declared_words);
  CHECK(it != ledger_.end())
      << "AdmissionController::Release(" << declared_words
      << "): no outstanding reservation of that size ("
      << ledger_.size() << " live reservation(s), " << tracker_.Current()
      << " words reserved) — double release or size mismatch";
  ledger_.erase(it);
  tracker_.Release(kReservedComponent, declared_words);
}

WavePlan PlanWaves(const std::vector<QuerySpec>& specs,
                   const BudgetPolicy& policy) {
  WavePlan plan;
  AdmissionController controller(policy);
  std::vector<std::size_t> pending(specs.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  while (!pending.empty()) {
    PlannedWave wave;
    for (std::size_t slot : pending) {
      switch (controller.Offer(specs[slot].space_budget_words)) {
        case AdmissionOutcome::kAdmitted:
          wave.admitted.push_back(slot);
          break;
        case AdmissionOutcome::kQueued:
          wave.queue.push_back(slot);
          // Every slot is first offered in wave 0, so a queued slot is
          // counted there exactly once.
          if (plan.waves.empty()) ++plan.queries_queued;
          break;
        case AdmissionOutcome::kRejected:
          plan.rejected.push_back(slot);
          break;
      }
    }
    if (wave.admitted.empty()) {
      // Between waves every reservation is released, and Offer rejects
      // anything larger than the aggregate cap outright — so a non-empty
      // pending set always admits at least its first query.
      CHECK(wave.queue.empty()) << "admission deadlock: queued queries with "
                                   "an empty wave";
      break;
    }
    for (std::size_t slot : wave.admitted) {
      controller.Release(specs[slot].space_budget_words);
    }
    pending = wave.queue;
    plan.waves.push_back(std::move(wave));
  }
  plan.budget_peak_words = controller.peak_reserved_words();
  return plan;
}

}  // namespace cyclestream::engine
