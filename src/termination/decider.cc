#include "termination/decider.h"

#include <algorithm>
#include <new>

#include "model/printer.h"
#include "obs/phase.h"

namespace gchase {

const char* TerminationVerdictName(TerminationVerdict verdict) {
  switch (verdict) {
    case TerminationVerdict::kTerminating:
      return "terminating";
    case TerminationVerdict::kNonTerminating:
      return "non-terminating";
    case TerminationVerdict::kUnknown:
      return "unknown";
  }
  return "?";
}

StatusOr<DeciderResult> DecideTermination(const RuleSet& rules,
                                          Vocabulary* vocabulary,
                                          ChaseVariant variant,
                                          const DeciderOptions& options) {
  if (variant == ChaseVariant::kRestricted) {
    return Status::FailedPrecondition(
        "the critical-instance reduction does not apply to the restricted "
        "chase; use kOblivious or kSemiOblivious");
  }

  CriticalInstanceOptions critical_options;
  critical_options.standard_database = options.standard_database;
  critical_options.excluded_constants = options.excluded_constants;
  std::vector<Atom> database;
  {
    PhaseScope critical(Phase::kDeciderCriticalInstance, rules.size());
    database = BuildCriticalInstance(rules, vocabulary, critical_options);
  }

  ChaseOptions chase_options;
  chase_options.variant = variant;
  chase_options.max_atoms = options.max_atoms;
  chase_options.max_steps = options.max_steps;
  chase_options.max_hom_discoveries = options.max_hom_discoveries;
  chase_options.max_join_work = options.max_join_work;
  chase_options.max_memory_bytes = options.max_memory_bytes;
  chase_options.memory_budget = options.memory_budget;
  chase_options.track_provenance = true;
  chase_options.deadline = options.deadline;
  chase_options.cancel = options.cancel;
  chase_options.fault_injector = options.fault_injector;

  DeciderResult result;
  double chase_seconds = 0.0;
  // API-boundary containment: seeding the critical-instance chase (the
  // ChaseRun constructor) and provenance growth both allocate outside
  // Execute()'s own bad_alloc guard. An allocator failure anywhere in the
  // exploration degrades to the same verdict a budget trip produces.
  try {
    PhaseScope chase(Phase::kDeciderChase, static_cast<uint64_t>(variant),
                     &chase_seconds);
    ChaseRun run(rules, chase_options, database);
    PumpDetector detector(run, options.pump);
    ChaseOutcome outcome = run.Execute([&](AtomId atom) {
      std::optional<PumpCertificate> certificate = detector.OnAtom(atom);
      if (certificate.has_value()) {
        result.certificate = std::move(certificate);
        return false;  // abort the chase: non-termination proven
      }
      return true;
    });

    result.chase_atoms = run.instance().size();
    result.applied_triggers = run.applied_triggers();
    result.hom_discoveries = run.hom_discoveries();
    result.join_work = run.join_work();
    result.chase_stats = run.stats();
    result.replays_attempted = detector.replays_attempted();
    switch (outcome) {
      case ChaseOutcome::kTerminated:
        result.verdict = TerminationVerdict::kTerminating;
        break;
      case ChaseOutcome::kAborted: {
        GCHASE_CHECK(result.certificate.has_value());
        result.verdict = TerminationVerdict::kNonTerminating;
        const PumpCertificate& certificate = *result.certificate;
        std::string text = "pump: ";
        text += AtomToString(run.instance().atom(certificate.ancestor).ToAtom(),
                             *vocabulary);
        text += "  ~>  ";
        text +=
            AtomToString(run.instance().atom(certificate.descendant).ToAtom(),
                         *vocabulary);
        text += "  via rules [";
        for (std::size_t i = 0; i < certificate.segment_rules.size(); ++i) {
          if (i > 0) text += ", ";
          text += std::to_string(certificate.segment_rules[i]);
        }
        text += "], replayable forever";
        result.certificate_text = std::move(text);
        break;
      }
      case ChaseOutcome::kResourceLimit:
      case ChaseOutcome::kDeadlineExceeded:
      case ChaseOutcome::kCancelled:
      case ChaseOutcome::kMemoryBudgetExceeded:
        // Graceful degradation, not failure: the partial chase stats above
        // are already filled in, and the structured detail says why and
        // where the run gave up. A memory-capped run is unknown like a
        // deadline-capped one — never divergence evidence.
        result.verdict = TerminationVerdict::kUnknown;
        result.unknown.reason = StopReasonOf(outcome);
        result.unknown.phase = "exact";
        break;
    }
  } catch (const std::bad_alloc&) {
    result.verdict = TerminationVerdict::kUnknown;
    result.unknown.reason = StopReason::kMemory;
    result.unknown.phase = "exact";
  }
  if (result.verdict == TerminationVerdict::kUnknown) {
    result.unknown.elapsed_seconds = chase_seconds;
  }
  return result;
}

StatusOr<DeciderResult> DecideTerminationWithFallback(
    const RuleSet& rules, Vocabulary* vocabulary, ChaseVariant variant,
    const DeciderOptions& options) {
  // Exact plus probe wall time, for a probe that gives up too.
  double seconds = 0.0;

  // Phase 1 — exact: full caps, 3/4 of the remaining wall-clock budget
  // (the probe is cheap; reserving a quarter guarantees it gets a turn).
  DeciderOptions exact = options;
  exact.deadline =
      Deadline::Earlier(options.deadline, options.deadline.Slice(0.75));
  StatusOr<DeciderResult> first = [&] {
    PhaseScope scope(Phase::kDeciderExact, static_cast<uint64_t>(variant),
                     &seconds);
    return DecideTermination(rules, vocabulary, variant, exact);
  }();
  if (!first.ok()) return first;
  if (first->verdict != TerminationVerdict::kUnknown) return first;
  if (first->unknown.reason == StopReason::kCancelled) return first;

  // Phase 2 — bounded probe: sharply capped, rest of the budget, no fault
  // injection. Its verdicts stay sound (termination under a cap is
  // termination; a verified pump is a proof), it just concludes less
  // often.
  DeciderOptions probe = options;
  probe.fault_injector = nullptr;
  probe.max_atoms = std::min<uint64_t>(options.max_atoms, 1u << 14);
  probe.max_steps = std::min<uint64_t>(options.max_steps, 1u << 16);
  probe.max_hom_discoveries =
      std::min<uint64_t>(options.max_hom_discoveries, 1ull << 20);
  probe.max_join_work = std::min<uint64_t>(options.max_join_work, 1ull << 24);
  StatusOr<DeciderResult> second = [&] {
    PhaseScope scope(Phase::kDeciderProbe, static_cast<uint64_t>(variant),
                     &seconds);
    return DecideTermination(rules, vocabulary, variant, probe);
  }();
  if (!second.ok()) return second;
  second->phase = "probe";
  if (second->verdict == TerminationVerdict::kUnknown) {
    second->unknown.phase = "probe";
    second->unknown.elapsed_seconds = seconds;
  }
  return second;
}

}  // namespace gchase
