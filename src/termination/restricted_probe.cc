#include "termination/restricted_probe.h"

#include "obs/phase.h"
#include "termination/critical_instance.h"

namespace gchase {

namespace {

ChaseOutcome RunOnce(const RuleSet& rules, const std::vector<Atom>& database,
                     const RestrictedProbeOptions& options, TriggerOrder order,
                     uint64_t seed) {
  ChaseOptions chase_options;
  chase_options.variant = ChaseVariant::kRestricted;
  chase_options.order = order;
  chase_options.order_seed = seed;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.max_hom_discoveries = options.max_hom_discoveries;
  chase_options.max_join_work = options.max_join_work;
  chase_options.discovery_threads = options.discovery_threads;
  chase_options.max_memory_bytes = options.max_memory_bytes;
  chase_options.memory_budget = options.memory_budget;
  chase_options.executor = options.executor;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;
  return RunChase(rules, chase_options, database).outcome;
}

}  // namespace

StatusOr<RestrictedProbeResult> ProbeRestrictedTermination(
    const RuleSet& rules, Vocabulary* vocabulary,
    const std::vector<Atom>& database,
    const RestrictedProbeOptions& options) {
  std::vector<Atom> facts = database;
  if (options.use_critical_instance) {
    facts = BuildCriticalInstance(rules, vocabulary);
  } else if (facts.empty()) {
    return Status::InvalidArgument(
        "probe needs a database when use_critical_instance is false");
  }

  RestrictedProbeResult result;
  uint32_t terminated = 0;
  uint32_t diverged = 0;
  // Tallies one run. Aborted runs (deadline / cancellation) are evidence
  // of nothing: they join runs_aborted, not the diverged side of the
  // order-sensitivity comparison.
  auto tally = [&result, &terminated, &diverged](ChaseOutcome outcome) {
    switch (outcome) {
      case ChaseOutcome::kTerminated:
        ++terminated;
        return true;
      case ChaseOutcome::kResourceLimit:
        ++diverged;
        return false;
      default:
        ++result.runs_aborted;
        if (result.stop_reason == StopReason::kNone) {
          result.stop_reason = StopReasonOf(outcome);
        }
        return false;
    }
  };
  // Enumerate the sampled runs up front so the fan-out and the serial
  // path walk the same list. No run depends on another and none is ever
  // skipped (aborted runs still tally), so executing them concurrently
  // and tallying in list order below reproduces the serial probe exactly.
  struct ProbeRun {
    TriggerOrder order;
    uint64_t seed;
  };
  std::vector<ProbeRun> runs;
  runs.push_back(ProbeRun{TriggerOrder::kFifo, 0});
  runs.push_back(ProbeRun{TriggerOrder::kDatalogFirst, 0});
  for (uint32_t i = 0; i < options.num_random_orders; ++i) {
    runs.push_back(
        ProbeRun{TriggerOrder::kRandom, options.seed + i * 0x9e3779b9u});
  }
  std::vector<ChaseOutcome> outcomes(runs.size(), ChaseOutcome::kTerminated);
  auto execute = [&](uint64_t i) {
    PhaseScope probe_round(Phase::kDeciderProbeRound, i);
    outcomes[i] =
        RunOnce(rules, facts, options, runs[i].order, runs[i].seed);
  };
  if (options.executor != nullptr) {
    options.executor->ParallelFor(runs.size(), execute);
  } else {
    for (uint64_t i = 0; i < runs.size(); ++i) execute(i);
  }
  result.fifo_terminated = tally(outcomes[0]);
  result.datalog_first_terminated = tally(outcomes[1]);
  for (std::size_t i = 2; i < outcomes.size(); ++i) {
    if (tally(outcomes[i])) {
      ++result.random_orders_terminated;
    } else if (outcomes[i] == ChaseOutcome::kResourceLimit) {
      ++result.random_orders_diverged;
    }
  }
  result.order_sensitive = terminated > 0 && diverged > 0;
  return result;
}

}  // namespace gchase
