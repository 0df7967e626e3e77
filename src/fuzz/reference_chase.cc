#include "fuzz/reference_chase.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "base/check.h"
#include "base/governor.h"
#include "base/rng.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"

namespace gchase {

namespace {

struct Trigger {
  uint32_t rule;
  Binding binding;
};

/// The variant's trigger key: the rule, then the images of the universal
/// variables (oblivious) or of the frontier (semi-oblivious, restricted).
std::vector<uint32_t> KeyOf(const Tgd& rule, uint32_t rule_index,
                            ChaseVariant variant, const Binding& binding) {
  const std::vector<VarId>& vars = variant == ChaseVariant::kOblivious
                                       ? rule.universal_variables()
                                       : rule.frontier();
  std::vector<uint32_t> key = {rule_index};
  for (VarId v : vars) key.push_back(binding[v].raw());
  return key;
}

ChaseOutcome StopOutcome(const RunGovernor& governor) {
  return governor.Check() == GovernorState::kCancelled
             ? ChaseOutcome::kCancelled
             : ChaseOutcome::kDeadlineExceeded;
}

/// Orders one round's triggers; `round` is the 1-based round number.
void Order(const RuleSet& rules, const ChaseOptions& options, uint64_t round,
           std::vector<Trigger>* triggers) {
  switch (options.order) {
    case TriggerOrder::kFifo:
      break;
    case TriggerOrder::kDatalogFirst:
      std::stable_partition(
          triggers->begin(), triggers->end(),
          [&](const Trigger& t) { return rules.rule(t.rule).IsFull(); });
      break;
    case TriggerOrder::kRandom: {
      Rng rng(SplitMix64(options.order_seed ^ SplitMix64(round)));
      for (std::size_t i = triggers->size(); i > 1; --i) {
        std::swap((*triggers)[i - 1], (*triggers)[rng.NextBelow(i)]);
      }
      break;
    }
  }
}

}  // namespace

ChaseResult RunReferenceChase(const RuleSet& rules, const ChaseOptions& options,
                              const std::vector<Atom>& database) {
  GCHASE_CHECK_MSG(
      options.max_join_work == std::numeric_limits<uint64_t>::max(),
      "the reference chase does not meter join work");
  ChaseResult result;
  result.stats.per_rule.assign(rules.size(), RuleStats{});
  Instance& instance = result.instance;
  for (const Atom& atom : database) instance.Insert(atom);

  const RunGovernor governor(options.deadline, options.cancel);
  const HomomorphismFinder finder(instance);
  const uint64_t null_cap = std::min(options.max_nulls, kMaxLabeledNulls);
  std::set<std::vector<uint32_t>> keys;
  AtomId watermark = 0;
  for (;;) {
    if (governor.Check() != GovernorState::kOk) {
      result.outcome = StopOutcome(governor);
      return result;
    }
    const AtomId round_end = instance.size();

    // Discovery: (rule, pivot) units in order, old/delta/all ranges.
    std::vector<Trigger> triggers;
    bool capped = false;
    bool tripped = false;
    for (uint32_t r = 0; r < rules.size() && !capped && !tripped; ++r) {
      const Tgd& rule = rules.rule(r);
      const std::size_t width = rule.body().size();
      for (std::size_t pivot = 0; pivot < width && !capped && !tripped;
           ++pivot) {
        HomSearchOptions search;
        search.watermark = watermark;
        search.ranges.assign(width, MatchRange::kAll);
        std::fill_n(search.ranges.begin(), pivot, MatchRange::kOldOnly);
        search.ranges[pivot] = MatchRange::kDeltaOnly;
        search.governor = &governor;
        search.governor_tripped = &tripped;
        finder.FindAllWithOptions(
            rule.body(), rule.num_variables(), search, Binding(),
            [&](const Binding& binding) {
              ++result.hom_discoveries;
              const bool fresh =
                  keys.insert(KeyOf(rule, r, options.variant, binding)).second;
              if (fresh) {
                ++result.stats.per_rule[r].discovered;
                triggers.push_back(Trigger{r, binding});
              }
              const uint64_t steps = result.applied_triggers + triggers.size();
              capped = steps >= options.max_steps ||
                       result.hom_discoveries >= options.max_hom_discoveries;
              return !capped;
            });
      }
    }
    if (tripped) {
      result.outcome = StopOutcome(governor);
      return result;
    }
    if (triggers.empty()) {
      result.outcome =
          capped ? ChaseOutcome::kResourceLimit : ChaseOutcome::kTerminated;
      return result;
    }
    ++result.rounds;
    RoundStats& round = result.stats.per_round.emplace_back();
    round.delta_atoms = round_end - watermark;
    round.candidates = triggers.size();
    Order(rules, options, result.rounds, &triggers);

    // Application, one trigger and one head atom at a time.
    for (const Trigger& trigger : triggers) {
      const Tgd& rule = rules.rule(trigger.rule);
      RuleStats& rule_stats = result.stats.per_rule[trigger.rule];
      if (options.variant == ChaseVariant::kRestricted) {
        Binding frontier(rule.num_variables(), UnboundTerm());
        for (VarId v : rule.frontier()) frontier[v] = trigger.binding[v];
        HomSearchOptions search;
        bool check_tripped = false;
        search.governor = &governor;
        search.governor_tripped = &check_tripped;
        const bool satisfied = finder.ExistsWithOptions(
            rule.head(), rule.num_variables(), search, frontier);
        if (check_tripped) {
          result.outcome = StopOutcome(governor);
          return result;
        }
        if (satisfied) {
          ++rule_stats.skipped_satisfied;
          continue;
        }
      }
      const uint64_t fresh = rule.existential_variables().size();
      if (result.applied_triggers >= options.max_steps ||
          result.nulls_created > null_cap ||
          fresh > null_cap - result.nulls_created) {
        result.outcome = ChaseOutcome::kResourceLimit;
        return result;
      }
      ++result.applied_triggers;
      ++rule_stats.applied;
      ++round.applied;
      Binding extended = trigger.binding;
      for (VarId v : rule.existential_variables()) {
        extended[v] = Term::Null(result.nulls_created++);
      }
      for (const Atom& head : rule.head()) {
        instance.Insert(SubstituteAtom(head, extended));
        if (instance.size() > options.max_atoms) {
          result.outcome = ChaseOutcome::kResourceLimit;
          return result;
        }
      }
    }
    if (capped) {
      result.outcome = ChaseOutcome::kResourceLimit;
      return result;
    }
    watermark = round_end;
  }
}

}  // namespace gchase
