#include <type_traits>

#include "acyclicity/dependency_graph.h"
#include "acyclicity/joint_acyclicity.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "generator/random_rules.h"
#include "gtest/gtest.h"
#include "model/parser.h"
#include "model/printer.h"
#include "termination/critical_instance.h"
#include "termination/decider.h"

namespace gchase {
namespace {

/// Parameter: (class, seed base). Each test sweeps many seeds.
///
/// gtest prints a struct parameter as its raw bytes, and those bytes end up
/// in the test names that gtest_discover_tests registers with ctest. The
/// explicit zero fields fill what would otherwise be padding, so the names
/// carry no uninitialised bytes and are the same on every build.
struct SweepParam {
  RuleClass rule_class;
  uint32_t zero_fill_a = 0;
  uint64_t seed_base;
  uint32_t num_seeds;
  uint32_t zero_fill_b = 0;
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no padding bytes");

class RandomSweepTest : public ::testing::TestWithParam<SweepParam> {};

RandomRuleSetOptions OptionsFor(RuleClass rule_class, Rng* rng) {
  RandomRuleSetOptions options;
  options.rule_class = rule_class;
  options.num_predicates = 3 + static_cast<uint32_t>(rng->NextBelow(4));
  options.min_arity = 1;
  options.max_arity = 2 + static_cast<uint32_t>(rng->NextBelow(2));
  options.num_rules = 2 + static_cast<uint32_t>(rng->NextBelow(5));
  options.existential_probability = 0.2 + 0.5 * rng->NextDouble();
  return options;
}

DeciderOptions SmallCaps() {
  DeciderOptions options;
  options.max_atoms = 20000;
  options.max_steps = 200000;
  options.max_hom_discoveries = 2000000;
  options.max_join_work = 20000000;
  return options;
}

/// Reruns the plain chase of the critical instance with the given caps.
ChaseOutcome RerunChase(const RuleSet& rules, Vocabulary* vocabulary,
                        ChaseVariant variant, uint64_t max_atoms,
                        uint64_t max_steps) {
  ChaseOptions options;
  options.variant = variant;
  options.max_atoms = max_atoms;
  options.max_steps = max_steps;
  options.max_hom_discoveries = 4000000;
  options.max_join_work = 40000000;
  std::vector<Atom> database = BuildCriticalInstance(rules, vocabulary);
  return RunChase(rules, options, database).outcome;
}

TEST_P(RandomSweepTest, Theorem1SyntacticEqualsDecider) {
  // On simple linear sets: CT_o = RA and CT_so = WA (Theorem 1). The
  // decider and the syntactic tests are implemented independently, so
  // agreement across random sweeps validates both.
  const SweepParam param = GetParam();
  if (param.rule_class != RuleClass::kSimpleLinear) {
    GTEST_SKIP() << "SL-only property";
  }
  for (uint32_t s = 0; s < param.num_seeds; ++s) {
    Rng rng(param.seed_base + s);
    RandomProgram program = GenerateRandomRuleSet(&rng, OptionsFor(
        RuleClass::kSimpleLinear, &rng));
    ASSERT_TRUE(program.rules.IsSimpleLinear());
    const bool ra = CheckRichAcyclicity(program.rules,
                                        program.vocabulary.schema).acyclic;
    const bool wa = CheckWeakAcyclicity(program.rules,
                                        program.vocabulary.schema).acyclic;
    StatusOr<DeciderResult> o = DecideTermination(
        program.rules, &program.vocabulary, ChaseVariant::kOblivious,
        SmallCaps());
    StatusOr<DeciderResult> so = DecideTermination(
        program.rules, &program.vocabulary, ChaseVariant::kSemiOblivious,
        SmallCaps());
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(so.ok());
    ASSERT_NE(o->verdict, TerminationVerdict::kUnknown)
        << "seed " << param.seed_base + s;
    ASSERT_NE(so->verdict, TerminationVerdict::kUnknown)
        << "seed " << param.seed_base + s;
    EXPECT_EQ(o->verdict == TerminationVerdict::kTerminating, ra)
        << "seed " << param.seed_base + s << "\n"
        << RuleSetToString(program.rules, program.vocabulary);
    EXPECT_EQ(so->verdict == TerminationVerdict::kTerminating, wa)
        << "seed " << param.seed_base + s << "\n"
        << RuleSetToString(program.rules, program.vocabulary);
  }
}

TEST_P(RandomSweepTest, DeciderConsistentWithCappedChase) {
  // Terminating verdicts must be reproducible by an uninstrumented chase
  // run; non-terminating verdicts must exceed any cap we throw at them.
  const SweepParam param = GetParam();
  for (uint32_t s = 0; s < param.num_seeds; ++s) {
    Rng rng(param.seed_base + s);
    RandomProgram program =
        GenerateRandomRuleSet(&rng, OptionsFor(param.rule_class, &rng));
    for (ChaseVariant variant :
         {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
      StatusOr<DeciderResult> result = DecideTermination(
          program.rules, &program.vocabulary, variant, SmallCaps());
      ASSERT_TRUE(result.ok());
      switch (result->verdict) {
        case TerminationVerdict::kTerminating: {
          ChaseOutcome outcome = RerunChase(
              program.rules, &program.vocabulary, variant,
              result->chase_atoms + 1, result->applied_triggers + 1);
          EXPECT_EQ(outcome, ChaseOutcome::kTerminated)
              << "seed " << param.seed_base + s << " variant "
              << ChaseVariantName(variant);
          break;
        }
        case TerminationVerdict::kNonTerminating: {
          ChaseOutcome outcome =
              RerunChase(program.rules, &program.vocabulary, variant,
                         /*max_atoms=*/5000, /*max_steps=*/50000);
          EXPECT_EQ(outcome, ChaseOutcome::kResourceLimit)
              << "seed " << param.seed_base + s << " variant "
              << ChaseVariantName(variant) << "\n"
              << RuleSetToString(program.rules, program.vocabulary);
          break;
        }
        case TerminationVerdict::kUnknown:
          // Caps were the binding constraint; acceptable for random sets.
          break;
      }
    }
  }
}

TEST_P(RandomSweepTest, VariantHierarchy) {
  // CT_o ⊆ CT_so on every random set.
  const SweepParam param = GetParam();
  for (uint32_t s = 0; s < param.num_seeds; ++s) {
    Rng rng(param.seed_base + s);
    RandomProgram program =
        GenerateRandomRuleSet(&rng, OptionsFor(param.rule_class, &rng));
    StatusOr<DeciderResult> o = DecideTermination(
        program.rules, &program.vocabulary, ChaseVariant::kOblivious,
        SmallCaps());
    StatusOr<DeciderResult> so = DecideTermination(
        program.rules, &program.vocabulary, ChaseVariant::kSemiOblivious,
        SmallCaps());
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(so.ok());
    if (o->verdict == TerminationVerdict::kTerminating) {
      EXPECT_NE(so->verdict, TerminationVerdict::kNonTerminating)
          << "seed " << param.seed_base + s;
    }
    if (so->verdict == TerminationVerdict::kNonTerminating) {
      EXPECT_NE(o->verdict, TerminationVerdict::kTerminating)
          << "seed " << param.seed_base + s;
    }
  }
}

TEST_P(RandomSweepTest, SyntacticConditionsAreSound) {
  // WA/JA accept => so-terminating; RA accepts => o-terminating.
  const SweepParam param = GetParam();
  for (uint32_t s = 0; s < param.num_seeds; ++s) {
    Rng rng(param.seed_base + s);
    RandomProgram program =
        GenerateRandomRuleSet(&rng, OptionsFor(param.rule_class, &rng));
    const Schema& schema = program.vocabulary.schema;
    const bool wa = CheckWeakAcyclicity(program.rules, schema).acyclic;
    const bool ra = CheckRichAcyclicity(program.rules, schema).acyclic;
    const bool ja = CheckJointAcyclicity(program.rules, schema).acyclic;
    EXPECT_LE(ra, wa) << "seed " << param.seed_base + s;
    EXPECT_LE(wa, ja) << "seed " << param.seed_base + s;
    if (ra) {
      StatusOr<DeciderResult> o = DecideTermination(
          program.rules, &program.vocabulary, ChaseVariant::kOblivious,
          SmallCaps());
      ASSERT_TRUE(o.ok());
      EXPECT_NE(o->verdict, TerminationVerdict::kNonTerminating)
          << "seed " << param.seed_base + s;
    }
    if (ja) {
      StatusOr<DeciderResult> so = DecideTermination(
          program.rules, &program.vocabulary, ChaseVariant::kSemiOblivious,
          SmallCaps());
      ASSERT_TRUE(so.ok());
      EXPECT_NE(so->verdict, TerminationVerdict::kNonTerminating)
          << "seed " << param.seed_base + s << "\n"
          << RuleSetToString(program.rules, program.vocabulary);
    }
  }
}

TEST_P(RandomSweepTest, PrinterParserRoundTrip) {
  const SweepParam param = GetParam();
  for (uint32_t s = 0; s < param.num_seeds; ++s) {
    Rng rng(param.seed_base + s);
    RandomProgram program =
        GenerateRandomRuleSet(&rng, OptionsFor(param.rule_class, &rng));
    std::string printed =
        RuleSetToString(program.rules, program.vocabulary);
    StatusOr<ParsedProgram> reparsed = ParseProgram(printed);
    ASSERT_TRUE(reparsed.ok()) << printed;
    EXPECT_EQ(RuleSetToString(reparsed->rules, reparsed->vocabulary),
              printed);
    EXPECT_EQ(reparsed->rules.Classify(), program.rules.Classify());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, RandomSweepTest,
    ::testing::Values(
        SweepParam{.rule_class = RuleClass::kSimpleLinear,
                   .seed_base = 1000,
                   .num_seeds = 60},
        SweepParam{.rule_class = RuleClass::kLinear,
                   .seed_base = 2000,
                   .num_seeds = 60},
        SweepParam{.rule_class = RuleClass::kGuarded,
                   .seed_base = 3000,
                   .num_seeds = 40},
        SweepParam{.rule_class = RuleClass::kGeneral,
                   .seed_base = 4000,
                   .num_seeds = 30}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      switch (info.param.rule_class) {
        case RuleClass::kSimpleLinear:
          return std::string("SimpleLinear");
        case RuleClass::kLinear:
          return std::string("Linear");
        case RuleClass::kGuarded:
          return std::string("Guarded");
        case RuleClass::kGeneral:
          return std::string("General");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace gchase
