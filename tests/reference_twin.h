#ifndef GCHASE_TESTS_REFERENCE_TWIN_H_
#define GCHASE_TESTS_REFERENCE_TWIN_H_

// Bit-identity assertions between two chase runs of one program: the
// engine against the reference chase (fuzz/reference_chase.h), or the
// engine against a second run of itself.

#include <string>

#include "chase/chase.h"
#include "fuzz/reference_chase.h"
#include "gtest/gtest.h"
#include "model/parser.h"

namespace gchase {

/// Asserts that two runs agree on everything the determinism contract
/// pins: outcome, counters, per-rule and per-round stats, and the
/// instance atom for atom, id for id. join_work is compared only when
/// both runs metered it.
inline void ExpectSameRun(const ChaseResult& left, const ChaseResult& right,
                          bool compare_join_work, const std::string& context) {
  EXPECT_EQ(left.outcome, right.outcome) << context;
  EXPECT_EQ(left.applied_triggers, right.applied_triggers) << context;
  EXPECT_EQ(left.rounds, right.rounds) << context;
  EXPECT_EQ(left.nulls_created, right.nulls_created) << context;
  EXPECT_EQ(left.hom_discoveries, right.hom_discoveries) << context;
  if (compare_join_work) {
    EXPECT_EQ(left.join_work, right.join_work) << context;
  }
  const std::vector<Atom> left_atoms = left.instance.MaterializeAtoms();
  const std::vector<Atom> right_atoms = right.instance.MaterializeAtoms();
  ASSERT_EQ(left_atoms.size(), right_atoms.size()) << context;
  for (std::size_t i = 0; i < left_atoms.size(); ++i) {
    ASSERT_TRUE(left_atoms[i] == right_atoms[i]) << context << " atom " << i;
  }
  const ChaseStats& a = left.stats;
  const ChaseStats& b = right.stats;
  ASSERT_EQ(a.per_rule.size(), b.per_rule.size()) << context;
  for (std::size_t r = 0; r < a.per_rule.size(); ++r) {
    EXPECT_EQ(a.per_rule[r].discovered, b.per_rule[r].discovered)
        << context << " rule " << r;
    EXPECT_EQ(a.per_rule[r].applied, b.per_rule[r].applied)
        << context << " rule " << r;
    EXPECT_EQ(a.per_rule[r].skipped_satisfied, b.per_rule[r].skipped_satisfied)
        << context << " rule " << r;
  }
  ASSERT_EQ(a.per_round.size(), b.per_round.size()) << context;
  for (std::size_t i = 0; i < a.per_round.size(); ++i) {
    EXPECT_EQ(a.per_round[i].delta_atoms, b.per_round[i].delta_atoms)
        << context << " round " << i;
    EXPECT_EQ(a.per_round[i].candidates, b.per_round[i].candidates)
        << context << " round " << i;
    EXPECT_EQ(a.per_round[i].applied, b.per_round[i].applied)
        << context << " round " << i;
  }
}

/// Runs `options` through the engine and the reference chase and asserts
/// bit-identity. Returns the engine's run for further checks.
inline ChaseResult ExpectMatchesReference(const ParsedProgram& program,
                                          const ChaseOptions& options,
                                          const std::string& context) {
  ChaseResult engine = RunChase(program.rules, options, program.facts);
  const ChaseResult reference =
      RunReferenceChase(program.rules, options, program.facts);
  ExpectSameRun(engine, reference, /*compare_join_work=*/false, context);
  return engine;
}

}  // namespace gchase

#endif  // GCHASE_TESTS_REFERENCE_TWIN_H_
