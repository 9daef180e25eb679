// SpeculationAdvisor — expected-utility speculation decisions (extension).
//
// PLANET leaves the speculate-or-not choice to the application via a bare
// likelihood threshold. Applications, however, think in costs: how much is
// answering the user *now* worth, and how expensive is an apology (refund,
// support ticket, trust)? This helper closes that gap: given the costs it
// computes the decision that maximizes expected utility at the deadline,
// which reduces to a likelihood threshold the application no longer has to
// hand-tune:
//
//   speculate iff  L * value_correct - (1 - L) * cost_apology
//                  >  max(value_wait(L), value_give_up)
//
// with value_wait approximated by the discounted outcome value after the
// expected residual wait.
#ifndef PLANET_PLANET_ADVISOR_H_
#define PLANET_PLANET_ADVISOR_H_

#include "common/types.h"
#include "planet/transaction.h"

namespace planet {

/// Application-provided utility model for one class of transactions.
struct SpeculationCosts {
  /// Utility of telling the user "done" immediately (and being right).
  double value_instant_success = 1.0;
  /// Cost of an apology (speculated, then aborted). Positive number.
  double cost_apology = 5.0;
  /// Utility of a correct answer delivered late (after waiting out the
  /// commit instead of speculating).
  double value_late_success = 0.5;
  /// Utility of showing "pending, we'll let you know" (give-up).
  double value_pending = 0.2;
};

/// The advised action at a deadline.
enum class SpeculationAdvice { kSpeculate, kWait, kGiveUp };

const char* SpeculationAdviceName(SpeculationAdvice advice);

/// Pure decision function: maximizes expected utility given the live commit
/// likelihood. Exposed separately from the transaction plumbing for tests.
SpeculationAdvice Advise(const SpeculationCosts& costs, double likelihood);

/// The likelihood above which Advise() returns kSpeculate (the implied
/// threshold; useful for reporting and for PlanetRunnerPolicy-style use).
double ImpliedSpeculationThreshold(const SpeculationCosts& costs);

/// Ready-made timeout callback: wire into PlanetTransaction::WithTimeout.
/// Example:
///   txn.WithTimeout(Millis(150), MakeAdvisorCallback(costs));
std::function<void(PlanetTransaction&)> MakeAdvisorCallback(
    const SpeculationCosts& costs);

}  // namespace planet

#endif  // PLANET_PLANET_ADVISOR_H_
