// Tests for the per-rule trigger-key tables (chase/trigger_keys.h) and
// the merge that dedups discovery rows through them. Every check runs
// against a std::set oracle: at the table level over random keys, and
// at the engine level over the keys of every body homomorphism into the
// final instance of a terminated run (every such trigger is discovered
// in some round, whatever the variant).

#include "chase/trigger_keys.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/memory_budget.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "storage/homomorphism.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

using Key = std::vector<Term>;

std::vector<VarId> Positions(uint32_t width) {
  std::vector<VarId> vars(width);
  for (uint32_t i = 0; i < width; ++i) vars[i] = i;
  return vars;
}

Key KeyOf(const Term* row, const std::vector<VarId>& vars) {
  Key key;
  for (VarId v : vars) key.push_back(row[v]);
  return key;
}

TEST(TriggerKeyTableTest, EmptyTableAllocatesNothing) {
  TriggerKeyTable table;
  table.SetKeyVariables(Positions(2));
  table.Reserve(0);
  const Term row[2] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_FALSE(table.Contains(row));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity_bytes(), 0u);
}

TEST(TriggerKeyTableTest, ContainsBeforeAndAfterInsert) {
  TriggerKeyTable table;
  table.SetKeyVariables(Positions(2));
  const Term a[2] = {Term::Constant(1), Term::Null(7)};
  const Term b[2] = {Term::Null(7), Term::Constant(1)};
  EXPECT_FALSE(table.Contains(a));
  EXPECT_TRUE(table.Insert(a, table.Hash(a)));
  EXPECT_TRUE(table.Contains(a));
  EXPECT_FALSE(table.Contains(b)) << "word order is part of the key";
  EXPECT_FALSE(table.Insert(a, table.Hash(a)));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Insert(b, table.Hash(b)));
  EXPECT_TRUE(table.Contains(b));
  EXPECT_EQ(table.size(), 2u);
}

TEST(TriggerKeyTableTest, OnlyKeyVariablesMatter) {
  // Key variables 2 and 0: rows that agree there are one key, whatever
  // the other positions hold.
  TriggerKeyTable table;
  table.SetKeyVariables({2, 0});
  EXPECT_EQ(table.key_variables().size(), 2u);
  const Term first[3] = {Term::Constant(1), Term::Constant(5), Term::Null(3)};
  const Term same[3] = {Term::Constant(1), Term::Null(9), Term::Null(3)};
  const Term other[3] = {Term::Null(3), Term::Constant(5), Term::Constant(1)};
  EXPECT_TRUE(table.Insert(first, table.Hash(first)));
  EXPECT_FALSE(table.Insert(same, table.Hash(same)));
  EXPECT_TRUE(table.Contains(same));
  EXPECT_FALSE(table.Contains(other));
  EXPECT_TRUE(table.Insert(other, table.Hash(other)));
}

TEST(TriggerKeyTableTest, WidthZeroKeyHoldsOneKey) {
  TriggerKeyTable table;
  table.SetKeyVariables({});
  // Room for one key is all a width-0 table ever needs.
  table.Reserve(1000000);
  EXPECT_LE(table.capacity_bytes(), 16 * sizeof(uint64_t));
  const Term a[1] = {Term::Constant(1)};
  const Term b[1] = {Term::Constant(2)};
  EXPECT_FALSE(table.Contains(a));
  EXPECT_TRUE(table.Insert(a, table.Hash(a)));
  EXPECT_FALSE(table.Insert(b, table.Hash(b)));
  EXPECT_FALSE(table.Insert(a, table.Hash(a)));
  EXPECT_TRUE(table.Contains(b));
  EXPECT_EQ(table.size(), 1u);
}

TEST(TriggerKeyTableTest, ReservedInsertsNeverGrow) {
  TriggerKeyTable table;
  table.SetKeyVariables(Positions(3));
  table.Reserve(1000);
  const uint64_t reserved = table.capacity_bytes();
  EXPECT_GE(reserved, 1000u * (3 * sizeof(uint32_t) + 2 * sizeof(uint64_t)));
  for (uint32_t i = 0; i < 1000; ++i) {
    const Term row[3] = {Term::Constant(i), Term::Constant(i + 1),
                         Term::Null(i)};
    ASSERT_TRUE(table.Insert(row, table.Hash(row)));
    ASSERT_EQ(table.capacity_bytes(), reserved) << "insert " << i;
  }
  table.Reserve(0);
  EXPECT_EQ(table.capacity_bytes(), reserved);
}

TEST(TriggerKeyTableTest, RandomKeysMatchSetOracleAcrossRehashes) {
  // 250k keys over a small domain (80 terms per word), so about a fifth
  // repeat an earlier key. They arrive in "units" of random size; most
  // units are reserved up front, as the merge does, and the rest are not
  // (Insert then grows the table on its own). The table grows many
  // times on the way to ~200k keys.
  constexpr uint32_t kWidth = 3;
  constexpr uint64_t kKeys = 250000;
  TriggerKeyTable table;
  table.SetKeyVariables(Positions(kWidth));
  std::set<Key> oracle;
  Rng rng(20261020);
  std::vector<Term> unit;
  uint64_t inserted = 0;
  uint64_t growths = 0;
  uint64_t last_bytes = table.capacity_bytes();
  while (inserted < kKeys) {
    const uint64_t rows = 1 + rng.NextBelow(400);
    unit.clear();
    for (uint64_t r = 0; r < rows * kWidth; ++r) {
      const uint64_t index = rng.NextBelow(40);
      unit.push_back(rng.NextBelow(2) == 0
                         ? Term::Constant(static_cast<uint32_t>(index))
                         : Term::Null(index));
    }
    if (rng.NextBelow(4) != 0) table.Reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      const Term* row = unit.data() + r * kWidth;
      const bool fresh =
          oracle.insert(KeyOf(row, table.key_variables())).second;
      ASSERT_EQ(table.Contains(row), !fresh) << "row " << inserted + r;
      ASSERT_EQ(table.Insert(row, table.Hash(row)), fresh)
          << "row " << inserted + r;
      ASSERT_TRUE(table.Contains(row));
    }
    inserted += rows;
    ASSERT_EQ(table.size(), oracle.size());
    if (table.capacity_bytes() != last_bytes) ++growths;
    last_bytes = table.capacity_bytes();
  }
  EXPECT_GE(growths, 8u);
  EXPECT_LT(oracle.size(), inserted);
  // Every oracle key is still found after all the rehashes, and keys the
  // oracle lacks are not.
  for (const Key& key : oracle) ASSERT_TRUE(table.Contains(key.data()));
  for (uint32_t i = 0; i < 1000; ++i) {
    const Term row[kWidth] = {Term::Constant(100 + i), Term::Null(i),
                              Term::Constant(i)};
    ASSERT_FALSE(table.Contains(row));
  }
}

TEST(TriggerKeyTableTest, ChargesRetainedCapacityAndReleasesIt) {
  MemoryBudget budget;
  {
    TriggerKeyTable table;
    table.SetKeyVariables(Positions(2));
    table.SetMemoryBudget(&budget);
    EXPECT_EQ(budget.in_use_bytes(), 0u);
    for (uint32_t i = 0; i < 5000; ++i) {
      const Term row[2] = {Term::Constant(i), Term::Constant(i)};
      table.Insert(row, table.Hash(row));
    }
    EXPECT_GT(table.capacity_bytes(), 0u);
    EXPECT_EQ(budget.in_use_bytes(), table.capacity_bytes());
  }
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

// -------------------------------------------------------------------------
// The merge: the engine's discovered keys against a std::set oracle.

/// The key variables of `rule` under `variant`, restated here rather
/// than read from the engine.
std::vector<VarId> OracleKeyVariables(const Tgd& rule, ChaseVariant variant) {
  return variant == ChaseVariant::kOblivious ? rule.universal_variables()
                                             : rule.frontier();
}

/// Checks a terminated run against the oracle: per rule, the distinct
/// keys of all body homomorphisms into the final instance are exactly
/// the keys the run discovered, and WasTriggerApplied holds for each.
void ExpectKeysMatchOracle(const ChaseRun& run, ChaseVariant variant) {
  const RuleSet& rules = run.rules();
  HomomorphismFinder finder(run.instance());
  uint64_t total = 0;
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const Tgd& rule = rules.rule(r);
    const std::vector<VarId> vars = OracleKeyVariables(rule, variant);
    EXPECT_EQ(run.TriggerKeyVariables(r), vars) << "rule " << r;
    std::set<Key> oracle;
    finder.FindAll(rule.body(), rule.num_variables(),
                   [&](const Binding& binding) {
                     oracle.insert(KeyOf(binding.data(), vars));
                     EXPECT_TRUE(run.WasTriggerApplied(r, binding.data()))
                         << "rule " << r;
                     return true;
                   });
    EXPECT_EQ(run.stats().per_rule[r].discovered, oracle.size())
        << "rule " << r << " " << ChaseVariantName(variant);
    total += oracle.size();
    // A binding over a constant the run never saw is a key it never had
    // (unless the key is empty: then every binding has the one key).
    Binding unseen(rule.num_variables(), Term::Constant(1u << 20));
    EXPECT_EQ(run.WasTriggerApplied(r, unseen.data()),
              vars.empty() && !oracle.empty())
        << "rule " << r;
  }
  EXPECT_EQ(run.stats().peak_dedup_keys, total);
}

constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                      ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kRestricted};

ChaseOptions Options(ChaseVariant variant) {
  ChaseOptions options;
  options.variant = variant;
  options.max_atoms = 100000;
  return options;
}

TEST(TriggerKeyMergeTest, DuplicatesInsideOneUnit) {
  // One unit (one body conjunct), three rows, two frontier keys.
  ParsedProgram program = MustParse(
      "e(X,Y) -> p(X,Z).\n"
      "e(a,b). e(a,c). e(b,c).\n");
  for (ChaseVariant variant : kVariants) {
    ChaseRun run(program.rules, Options(variant), program.facts);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    ASSERT_EQ(run.stats().per_round.size(), 1u);
    const RoundStats& round = run.stats().per_round[0];
    EXPECT_EQ(round.binding_rows, 3u);
    EXPECT_EQ(round.candidates,
              variant == ChaseVariant::kOblivious ? 3u : 2u);
    ExpectKeysMatchOracle(run, variant);
  }
}

TEST(TriggerKeyMergeTest, DuplicatesAcrossUnitsOfOneRound) {
  // Round 1 derives r(a,a) and s(a,_). In round 2 the last rule's
  // pivot-0 unit pairs the new r atom with the new s atom; its pivot-1
  // unit pairs the old r(a,b) with the new s atom. Two rows, one
  // frontier key {X = a}.
  ParsedProgram program = MustParse(
      "p(X) -> r(X,X).\n"
      "q(X) -> s(X,Y).\n"
      "r(X,Y), s(X,Z) -> t(X,W).\n"
      "r(a,b). p(a). q(a).\n");
  for (ChaseVariant variant : kVariants) {
    ChaseRun run(program.rules, Options(variant), program.facts);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    ASSERT_EQ(run.stats().per_round.size(), 2u);
    const RoundStats& round = run.stats().per_round[1];
    EXPECT_EQ(round.binding_rows, 2u);
    EXPECT_EQ(round.candidates,
              variant == ChaseVariant::kOblivious ? 2u : 1u);
    ExpectKeysMatchOracle(run, variant);
  }
}

TEST(TriggerKeyMergeTest, DuplicatesAcrossRounds) {
  // Round 1 applies the first rule's key {X = a} and derives e(a,c);
  // round 2 finds e(a,c), whose frontier key was applied a round ago.
  ParsedProgram program = MustParse(
      "e(X,Y) -> p(X,Z).\n"
      "q(Y) -> e(a,Y).\n"
      "e(a,b). q(c).\n");
  for (ChaseVariant variant : kVariants) {
    ChaseRun run(program.rules, Options(variant), program.facts);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    EXPECT_EQ(run.hom_discoveries(), 3u);
    EXPECT_EQ(run.stats().per_rule[0].applied,
              variant == ChaseVariant::kOblivious ? 2u : 1u);
    ExpectKeysMatchOracle(run, variant);
  }
}

TEST(TriggerKeyMergeTest, EmptyFrontierFiresAtMostOnce) {
  // Width-0 key: every trigger of the rule is the same trigger except
  // under the oblivious chase, whose key is the body variable.
  ParsedProgram program = MustParse(
      "p(X) -> q(Y).\n"
      "p(a). p(b). p(c).\n");
  for (ChaseVariant variant : kVariants) {
    ChaseRun run(program.rules, Options(variant), program.facts);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    EXPECT_EQ(run.TriggerKeyVariables(0).size(),
              variant == ChaseVariant::kOblivious ? 1u : 0u);
    EXPECT_EQ(run.applied_triggers(),
              variant == ChaseVariant::kOblivious ? 3u : 1u);
    ExpectKeysMatchOracle(run, variant);
  }
}

TEST(TriggerKeyMergeTest, ClosureKeysMatchOracleForEveryVariant) {
  // Many rounds and many units: the closure of a 40-edge chain.
  std::string text =
      "e(X,Y) -> p(X,Y).\n"
      "p(X,Y), e(Y,Z) -> p(X,Z).\n"
      "p(X,Y), p(Y,Z) -> c(X,Z,W).\n";
  for (int i = 0; i < 40; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
  }
  ParsedProgram program = MustParse(text);
  for (ChaseVariant variant : kVariants) {
    ChaseRun run(program.rules, Options(variant), program.facts);
    ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
    ASSERT_GE(run.stats().per_round.size(), 10u);
    ExpectKeysMatchOracle(run, variant);
  }
}

}  // namespace
}  // namespace gchase
