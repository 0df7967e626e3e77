#include "termination/decider.h"

#include <string>
#include <vector>

#include "generator/workloads.h"
#include "gtest/gtest.h"
#include "termination/classifier.h"
#include "termination/looping_operator.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

TerminationVerdict Decide(ParsedProgram* program, ChaseVariant variant) {
  StatusOr<DeciderResult> result =
      DecideTermination(program->rules, &program->vocabulary, variant);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result->verdict;
}

TEST(DeciderTest, RejectsRestrictedVariant) {
  ParsedProgram program = MustParse("p(X) -> q(X).\n");
  StatusOr<DeciderResult> result = DecideTermination(
      program.rules, &program.vocabulary, ChaseVariant::kRestricted);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DeciderTest, CuratedWorkloadGroundTruth) {
  // The central correctness test: the decider must reproduce the
  // hand-verified all-instance termination status of every curated
  // workload, for both chase variants.
  for (const NamedWorkload& workload : CuratedWorkloads()) {
    StatusOr<ParsedProgram> program = LoadWorkload(workload);
    ASSERT_TRUE(program.ok()) << workload.name;
    if (workload.oblivious_terminates.has_value()) {
      TerminationVerdict verdict =
          Decide(&*program, ChaseVariant::kOblivious);
      EXPECT_EQ(verdict, *workload.oblivious_terminates
                             ? TerminationVerdict::kTerminating
                             : TerminationVerdict::kNonTerminating)
          << workload.name << " (oblivious)";
    }
    if (workload.semi_oblivious_terminates.has_value()) {
      TerminationVerdict verdict =
          Decide(&*program, ChaseVariant::kSemiOblivious);
      EXPECT_EQ(verdict, *workload.semi_oblivious_terminates
                             ? TerminationVerdict::kTerminating
                             : TerminationVerdict::kNonTerminating)
          << workload.name << " (semi-oblivious)";
    }
  }
}

TEST(DeciderTest, NonTerminationComesWithCertificate) {
  ParsedProgram program = MustParse("p(X,Y) -> p(Y,Z).\n");
  StatusOr<DeciderResult> result = DecideTermination(
      program.rules, &program.vocabulary, ChaseVariant::kSemiOblivious);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->verdict, TerminationVerdict::kNonTerminating);
  ASSERT_TRUE(result->certificate.has_value());
  EXPECT_FALSE(result->certificate->segment_rules.empty());
}

TEST(DeciderTest, ObliviousImpliesSemiObliviousTermination) {
  // CT_o ⊆ CT_so (Grahne & Onet): wherever the o-chase terminates, the
  // so-chase must too.
  for (const NamedWorkload& workload : CuratedWorkloads()) {
    StatusOr<ParsedProgram> program = LoadWorkload(workload);
    ASSERT_TRUE(program.ok());
    TerminationVerdict o = Decide(&*program, ChaseVariant::kOblivious);
    TerminationVerdict so = Decide(&*program, ChaseVariant::kSemiOblivious);
    if (o == TerminationVerdict::kTerminating) {
      EXPECT_EQ(so, TerminationVerdict::kTerminating) << workload.name;
    }
    if (so == TerminationVerdict::kNonTerminating) {
      EXPECT_EQ(o, TerminationVerdict::kNonTerminating) << workload.name;
    }
  }
}

/// Rule set of an ltree(depth) program: each level's loop atom spawns
/// two fresh children carrying the next level's loop atom.
std::string LtreeProgram(uint32_t depth) {
  std::string text;
  for (uint32_t i = 0; i < depth; ++i) {
    const std::string level = "n" + std::to_string(i);
    const std::string next = "n" + std::to_string(i + 1);
    text += level + "(X,X) -> c(X,Y), c(X,Z), " + next + "(Y,Y), " + next +
            "(Z,Z).\n";
  }
  return text;
}

TEST(DeciderTest, PinnedOutputsOnTerminatingAndDivergingSets) {
  // The decider's exploratory chase notifies the pump detector atom by
  // atom, right after each trigger's provenance record lands. These
  // figures are that chase's observable footprint; a change to where or
  // when the engine notifies the observer (e.g. deferring it to a bulk
  // flush) moves them, and must fail here rather than pass silently.
  struct Pin {
    const char* name;
    std::string program;
    ChaseVariant variant;
    TerminationVerdict verdict;
    uint64_t chase_atoms;
    uint64_t applied_triggers;
    std::vector<uint32_t> segment_rules;  // Empty unless non-terminating.
  };
  auto curated = [](const char* name) {
    StatusOr<NamedWorkload> workload = FindWorkload(name);
    EXPECT_TRUE(workload.ok()) << name;
    return workload.ok() ? workload->program : std::string();
  };
  constexpr ChaseVariant kO = ChaseVariant::kOblivious;
  constexpr ChaseVariant kSo = ChaseVariant::kSemiOblivious;
  constexpr TerminationVerdict kTerm = TerminationVerdict::kTerminating;
  constexpr TerminationVerdict kDiv = TerminationVerdict::kNonTerminating;
  // The rule of examples/rules/diverging_chain.dlgp.
  const std::string diverging_chain = "e(X,Y) -> e(Y,Z), e(Z,X).\n";
  const std::vector<Pin> pins = {
      {"diverging_chain", diverging_chain, kO, kDiv, 9, 4, {0}},
      {"diverging_chain", diverging_chain, kSo, kDiv, 9, 4, {0}},
      {"ltree4", LtreeProgram(4), kO, kTerm, 110, 26, {}},
      {"ltree4", LtreeProgram(4), kSo, kTerm, 110, 26, {}},
      {"ltree6", LtreeProgram(6), kO, kTerm, 488, 120, {}},
      {"ltree6", LtreeProgram(6), kSo, kTerm, 488, 120, {}},
      {"sl_o_div_so_term", curated("sl_o_div_so_term"), kO, kDiv, 3, 2, {0}},
      {"sl_o_div_so_term", curated("sl_o_div_so_term"), kSo, kTerm, 2, 1, {}},
      {"general_nonterm", curated("general_nonterm"), kO, kDiv, 5, 2, {0}},
      {"general_nonterm", curated("general_nonterm"), kSo, kDiv, 19, 9, {0}},
      {"ontology_cyclic_nonterm", curated("ontology_cyclic_nonterm"), kO,
       kDiv, 15, 13, {2, 3, 0, 1}},
      {"ontology_cyclic_nonterm", curated("ontology_cyclic_nonterm"), kSo,
       kDiv, 15, 13, {2, 3, 0, 1}},
      {"lubm_style_tbox", curated("lubm_style_tbox"), kO, kTerm, 42, 38, {}},
      {"lubm_style_tbox", curated("lubm_style_tbox"), kSo, kTerm, 42, 38, {}},
      {"guarded_side_term", curated("guarded_side_term"), kSo, kTerm, 6, 3,
       {}},
  };
  for (const Pin& pin : pins) {
    const std::string context =
        std::string(pin.name) + " (" + ChaseVariantName(pin.variant) + ")";
    ParsedProgram program = MustParse(pin.program);
    StatusOr<DeciderResult> result =
        DecideTermination(program.rules, &program.vocabulary, pin.variant);
    ASSERT_TRUE(result.ok()) << context;
    EXPECT_EQ(result->verdict, pin.verdict) << context;
    EXPECT_EQ(result->chase_atoms, pin.chase_atoms) << context;
    EXPECT_EQ(result->applied_triggers, pin.applied_triggers) << context;
    if (pin.verdict == kDiv) {
      ASSERT_TRUE(result->certificate.has_value()) << context;
      EXPECT_EQ(result->certificate->segment_rules, pin.segment_rules)
          << context;
    } else {
      EXPECT_FALSE(result->certificate.has_value()) << context;
    }
  }
}

TEST(DeciderTest, StandardDatabaseAgreesOnCuratedWorkloads) {
  // The standard-database critical instance ({*,0,1}) must not change the
  // verdicts on these (constant-free) workloads.
  DeciderOptions options;
  options.standard_database = true;
  for (const NamedWorkload& workload : CuratedWorkloads()) {
    StatusOr<ParsedProgram> program = LoadWorkload(workload);
    ASSERT_TRUE(program.ok());
    if (!workload.semi_oblivious_terminates.has_value()) continue;
    StatusOr<DeciderResult> result =
        DecideTermination(program->rules, &program->vocabulary,
                          ChaseVariant::kSemiOblivious, options);
    ASSERT_TRUE(result.ok()) << workload.name;
    EXPECT_EQ(result->verdict, *workload.semi_oblivious_terminates
                                   ? TerminationVerdict::kTerminating
                                   : TerminationVerdict::kNonTerminating)
        << workload.name;
  }
}

TEST(ClassifierTest, Theorem1SyntacticMatchesDecider) {
  // On SL sets the classifier uses RA/WA (Theorem 1); forcing the decider
  // must give identical verdicts.
  for (const NamedWorkload& workload : CuratedWorkloads()) {
    StatusOr<ParsedProgram> program = LoadWorkload(workload);
    ASSERT_TRUE(program.ok());
    if (program->rules.Classify() != RuleClass::kSimpleLinear) continue;
    StatusOr<ClassifierReport> syntactic =
        ClassifyTermination(program->rules, &program->vocabulary);
    ASSERT_TRUE(syntactic.ok());
    ClassifierOptions force;
    force.force_decider = true;
    StatusOr<ClassifierReport> decided =
        ClassifyTermination(program->rules, &program->vocabulary, force);
    ASSERT_TRUE(decided.ok());
    EXPECT_EQ(syntactic->oblivious.verdict, decided->oblivious.verdict)
        << workload.name;
    EXPECT_EQ(syntactic->semi_oblivious.verdict,
              decided->semi_oblivious.verdict)
        << workload.name;
  }
}

TEST(LoopingOperatorTest, EntailmentFlipsTermination) {
  // Graph reachability as atom entailment: the bootstrap rule introduces
  // an edge path over protected constants v0 -> v1 -> v2 (v3 is
  // disconnected). reach(v2) is entailed, reach(v3) is not; the looping
  // operator turns exactly the first into non-termination.
  ParsedProgram program = MustParse(
      "go() -> edge(v0,v1), edge(v1,v2), start(v0).\n"
      "start(X) -> reach(X).\n"
      "edge(X,Y), reach(X) -> reach(Y).\n");
  Vocabulary& vocab = program.vocabulary;

  DeciderOptions options;
  for (const char* name : {"v0", "v1", "v2", "v3"}) {
    options.excluded_constants.push_back(
        Term::Constant(vocab.constants.Intern(name)));
  }
  std::optional<PredicateId> reach = vocab.schema.Find("reach");
  ASSERT_TRUE(reach.has_value());
  Term v2 = Term::Constant(vocab.constants.Intern("v2"));
  Term v3 = Term::Constant(vocab.constants.Intern("v3"));

  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    StatusOr<bool> entailed = EntailsViaLoopingOperator(
        program.rules, Atom(*reach, {v2}), &vocab, variant, options);
    ASSERT_TRUE(entailed.ok()) << entailed.status().ToString();
    EXPECT_TRUE(*entailed) << ChaseVariantName(variant);

    StatusOr<bool> not_entailed = EntailsViaLoopingOperator(
        program.rules, Atom(*reach, {v3}), &vocab, variant, options);
    ASSERT_TRUE(not_entailed.ok()) << not_entailed.status().ToString();
    EXPECT_FALSE(*not_entailed) << ChaseVariantName(variant);
  }
}

}  // namespace
}  // namespace gchase
