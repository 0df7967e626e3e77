#include "termination/classifier.h"

#include "obs/phase.h"

namespace gchase {

StatusOr<ClassifierReport> ClassifyTermination(
    const RuleSet& rules, Vocabulary* vocabulary,
    const ClassifierOptions& options) {
  PhaseScope classify(Phase::kDeciderClassify, rules.size());
  ClassifierReport report;
  report.rule_class = rules.Classify();

  // The graph-based conditions are combinatorial on the rule set alone
  // (no chase), finish in microseconds, and run ungoverned.
  const Schema& schema = vocabulary->schema;
  {
    PhaseScope acyclicity(Phase::kDeciderAcyclicity, rules.size());
    report.weakly_acyclic = CheckWeakAcyclicity(rules, schema).acyclic;
    report.richly_acyclic = CheckRichAcyclicity(rules, schema).acyclic;
    report.jointly_acyclic = CheckJointAcyclicity(rules, schema).acyclic;
    report.sticky = CheckStickiness(rules, schema).sticky;
  }

  // MFA chases the critical instance: governed, at most a quarter of the
  // classifier budget so the variant analyses always get a turn.
  MfaOptions mfa_options;
  mfa_options.deadline =
      Deadline::Earlier(options.deadline, options.deadline.Slice(0.25));
  mfa_options.cancel = options.cancel;
  StatusOr<MfaResult> mfa =
      CheckModelFaithfulAcyclicity(rules, vocabulary, mfa_options);
  report.mfa = mfa.ok() && mfa->status == MfaStatus::kAcyclic;

  const bool use_syntactic =
      report.rule_class == RuleClass::kSimpleLinear && !options.force_decider;

  auto analyze = [&](ChaseVariant variant, double budget_fraction,
                     VariantAnalysis* analysis) -> Status {
    PhaseScope scope(Phase::kDeciderVariant, static_cast<uint64_t>(variant),
                     &analysis->seconds);
    if (use_syntactic) {
      // Theorem 1: CT_o ∩ SL = RA ∩ SL and CT_so ∩ SL = WA ∩ SL.
      const bool acyclic = variant == ChaseVariant::kOblivious
                               ? report.richly_acyclic
                               : report.weakly_acyclic;
      analysis->verdict = acyclic ? TerminationVerdict::kTerminating
                                  : TerminationVerdict::kNonTerminating;
      analysis->method = "syntactic (Thm 1)";
    } else {
      DeciderOptions decider = options.decider;
      decider.deadline = Deadline::Earlier(
          decider.deadline,
          Deadline::Earlier(options.deadline,
                            options.deadline.Slice(budget_fraction)));
      decider.cancel = options.cancel;
      StatusOr<DeciderResult> result =
          options.fallback_probe
              ? DecideTerminationWithFallback(rules, vocabulary, variant,
                                              decider)
              : DecideTermination(rules, vocabulary, variant, decider);
      if (!result.ok()) return result.status();
      analysis->verdict = result->verdict;
      analysis->method = "critical-instance decider (Thm 2/4)";
      analysis->decider = *std::move(result);
    }
    return Status::Ok();
  };

  // Oblivious gets half of what remains after MFA; semi-oblivious gets
  // everything still left when its turn comes.
  GCHASE_RETURN_IF_ERROR(
      analyze(ChaseVariant::kOblivious, 0.5, &report.oblivious));
  GCHASE_RETURN_IF_ERROR(
      analyze(ChaseVariant::kSemiOblivious, 1.0, &report.semi_oblivious));
  return report;
}

std::string ReportToString(const ClassifierReport& report) {
  std::string out;
  out += "rule class:        ";
  out += RuleClassName(report.rule_class);
  out += '\n';
  out += "weakly acyclic:    ";
  out += report.weakly_acyclic ? "yes" : "no";
  out += '\n';
  out += "richly acyclic:    ";
  out += report.richly_acyclic ? "yes" : "no";
  out += '\n';
  out += "jointly acyclic:   ";
  out += report.jointly_acyclic ? "yes" : "no";
  out += '\n';
  out += "MFA:               ";
  out += report.mfa ? "yes" : "no";
  out += '\n';
  out += "sticky:            ";
  out += report.sticky ? "yes" : "no";
  out += '\n';
  auto render = [&out](const char* label, const VariantAnalysis& analysis) {
    out += label;
    out += TerminationVerdictName(analysis.verdict);
    out += "  [";
    out += analysis.method;
    out += ", ";
    out += std::to_string(analysis.seconds * 1e3);
    out += " ms]\n";
    if (analysis.decider.has_value() &&
        !analysis.decider->certificate_text.empty()) {
      out += "                   ";
      out += analysis.decider->certificate_text;
      out += '\n';
    }
    if (analysis.decider.has_value() &&
        analysis.decider->verdict == TerminationVerdict::kUnknown) {
      out += "                   gave up: ";
      out += StopReasonName(analysis.decider->unknown.reason);
      out += " during ";
      out += analysis.decider->unknown.phase;
      out += " phase after ";
      out += std::to_string(analysis.decider->unknown.elapsed_seconds * 1e3);
      out += " ms\n";
    }
  };
  render("oblivious chase:   ", report.oblivious);
  render("semi-oblivious:    ", report.semi_oblivious);
  return out;
}

}  // namespace gchase
