// Memory-governance tests: budget arithmetic, the instance / staging
// accounting that feeds it, and the engine's degradation contract — a
// run that trips its byte budget stops with a distinct outcome, a clean
// partial instance that is a bit-exact prefix of the uncapped run, and
// stats intact; std::bad_alloc never escapes a public entry point.

#include "base/memory_budget.h"

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chase/batch_apply.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "model/atom.h"
#include "storage/instance.h"
#include "termination/decider.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

Atom MakeAtom(PredicateId pred, std::vector<uint32_t> constant_ids) {
  Atom atom;
  atom.predicate = pred;
  for (uint32_t id : constant_ids) atom.args.push_back(Term::Constant(id));
  return atom;
}

// -------------------------------------------------------------------------
// MemoryBudget primitives.

TEST(MemoryBudgetTest, ChargeReleaseAndPeakTrackLevels) {
  MemoryBudget budget(1000);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
  budget.Charge(400);
  budget.Charge(300);
  EXPECT_EQ(budget.in_use_bytes(), 700u);
  EXPECT_EQ(budget.peak_bytes(), 700u);
  budget.Release(500);
  EXPECT_EQ(budget.in_use_bytes(), 200u);
  // The peak is a high-water mark: releases never lower it.
  EXPECT_EQ(budget.peak_bytes(), 700u);
  budget.Charge(100);
  EXPECT_EQ(budget.peak_bytes(), 700u);
  EXPECT_FALSE(budget.Exceeded());
  budget.Charge(800);
  EXPECT_TRUE(budget.Exceeded());
  EXPECT_EQ(budget.peak_bytes(), 1100u);
}

TEST(MemoryBudgetTest, WouldExceedIsExactAtTheBoundary) {
  MemoryBudget budget(1000);
  budget.Charge(600);
  // Landing exactly on the limit is allowed; one byte past is not.
  EXPECT_FALSE(budget.WouldExceed(400));
  EXPECT_TRUE(budget.WouldExceed(401));
  // A single request larger than the whole limit is denied even from
  // empty (no uint64 underflow games).
  MemoryBudget fresh(1000);
  EXPECT_TRUE(fresh.WouldExceed(1001));
  EXPECT_FALSE(fresh.WouldExceed(1000));
}

TEST(MemoryBudgetTest, ZeroAndDefaultLimitsMeanUnlimited) {
  MemoryBudget by_default;
  MemoryBudget by_zero(0);
  for (MemoryBudget* budget : {&by_default, &by_zero}) {
    EXPECT_FALSE(budget->limited());
    budget->Charge(uint64_t{1} << 40);
    EXPECT_FALSE(budget->Exceeded());
    EXPECT_FALSE(budget->WouldExceed(uint64_t{1} << 40));
  }
}

TEST(MemoryBudgetTest, SoftWatermarkIsAdvisoryOnly) {
  MemoryBudget budget(1000, 100);
  budget.Charge(500);
  EXPECT_TRUE(budget.SoftExceeded());
  EXPECT_FALSE(budget.Exceeded());
  EXPECT_FALSE(budget.WouldExceed(100));
}

TEST(MemoryBudgetTest, DenialsAreCounted) {
  MemoryBudget budget(10);
  EXPECT_EQ(budget.denials(), 0u);
  budget.NoteDenied();
  budget.NoteDenied();
  EXPECT_EQ(budget.denials(), 2u);
}

// -------------------------------------------------------------------------
// Instance accounting: footprint, attach/detach, copy/move semantics.

TEST(InstanceBudgetTest, AttachChargesFootprintAndGrowthChargesDeltas) {
  Instance instance;
  for (uint32_t i = 0; i < 100; ++i) instance.TryAdd(MakeAtom(0, {i, i + 1}));
  EXPECT_GT(instance.MemoryFootprint(), 0u);

  MemoryBudget budget;
  instance.SetMemoryBudget(&budget);
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  // Every later growth keeps the charge in lockstep with the footprint.
  for (uint32_t i = 0; i < 3000; ++i) {
    instance.TryAdd(MakeAtom(1, {i, i}));
  }
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  instance.SetMemoryBudget(nullptr);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
  EXPECT_GT(budget.peak_bytes(), 0u);
}

TEST(InstanceBudgetTest, DestructionReleasesTheWholeCharge) {
  MemoryBudget budget;
  {
    Instance instance;
    for (uint32_t i = 0; i < 500; ++i) instance.TryAdd(MakeAtom(0, {i}));
    instance.SetMemoryBudget(&budget);
    EXPECT_GT(budget.in_use_bytes(), 0u);
  }
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(InstanceBudgetTest, CopiesAreUnbudgetedAndMovesTransferTheCharge) {
  MemoryBudget budget;
  Instance instance;
  for (uint32_t i = 0; i < 200; ++i) instance.TryAdd(MakeAtom(0, {i, i}));
  instance.SetMemoryBudget(&budget);
  const uint64_t charged = budget.in_use_bytes();
  ASSERT_GT(charged, 0u);
  {
    Instance copy = instance;  // result-snapshot path: must not
    EXPECT_EQ(copy.size(), instance.size());
    EXPECT_EQ(budget.in_use_bytes(), charged);  // ...double-charge...
  }
  EXPECT_EQ(budget.in_use_bytes(), charged);  // ...nor double-release.
  {
    Instance moved = std::move(instance);
    EXPECT_EQ(budget.in_use_bytes(), charged);
  }
  // The moved-to instance owned the charge and released it on death.
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(InstanceBudgetTest, EstimateReserveBytesMatchesTheActualGrowth) {
  Instance instance;
  for (uint32_t i = 0; i < 50; ++i) instance.TryAdd(MakeAtom(0, {i, i + 1}));
  MemoryBudget budget;
  instance.SetMemoryBudget(&budget);

  const uint64_t estimate = instance.EstimateReserveBytes(1000, 2000);
  EXPECT_GT(estimate, 0u);
  const uint64_t before = instance.MemoryFootprint();
  instance.ReserveAdditional(1000, 2000);
  // The projection mirrors every growth site's exact policy, so the
  // pre-size budget check denies precisely the reserves that would trip.
  EXPECT_EQ(instance.MemoryFootprint() - before, estimate);
  EXPECT_EQ(budget.in_use_bytes(), instance.MemoryFootprint());
  // Re-estimating the now-covered headroom costs nothing.
  EXPECT_EQ(instance.EstimateReserveBytes(1000, 2000), 0u);
}

// -------------------------------------------------------------------------
// HeadBlock staging accounting.

TEST(HeadBlockBudgetTest, StagingChargesHighWaterAndReleasesOnDetach) {
  MemoryBudget budget;
  HeadBlock block;
  block.SetMemoryBudget(&budget);
  for (uint32_t i = 0; i < 1000; ++i) {
    Term* row = block.Append(0, 2);
    row[0] = Term::Constant(i);
    row[1] = Term::Constant(i + 1);
  }
  EXPECT_EQ(budget.in_use_bytes(), block.capacity_bytes());
  const uint64_t high_water = budget.in_use_bytes();
  ASSERT_GT(high_water, 0u);
  // Clear() keeps capacity, so the charge stays at the high-water mark.
  block.Clear();
  EXPECT_EQ(budget.in_use_bytes(), high_water);
  block.SetMemoryBudget(nullptr);
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

// -------------------------------------------------------------------------
// Chase engine degradation under byte budgets.

// Doubling fan-out: every edge spawns two more, so the run outgrows any
// byte budget in a few dozen rounds.
constexpr const char* kDivergingProgram = "e(X,Y) -> e(Y,Z), e(Z,X).\ne(a,b).\n";

TEST(ChaseMemoryTest, DivergentChaseStopsOnBudgetWithCleanPartialResult) {
  ParsedProgram program = MustParse(kDivergingProgram);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_atoms = 1u << 20;  // backstop far above the byte budget
  options.max_memory_bytes = 1u << 20;  // 1 MiB
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kMemoryBudgetExceeded);

  // Partial result intact: the database plus some applied rounds.
  EXPECT_GT(run.instance().size(), program.facts.size());
  EXPECT_GT(run.applied_triggers(), 0u);
  EXPECT_EQ(run.stats().per_round.size(), run.rounds());
  EXPECT_EQ(run.stats().peak_atoms, run.instance().size());

  // The checks are hoisted to pre-size points, so the peak overshoots
  // the budget by at most one (here: zero) growth step.
  EXPECT_GT(run.stats().peak_memory_bytes, 0u);
  EXPECT_LE(run.stats().peak_memory_bytes,
            options.max_memory_bytes + options.max_memory_bytes / 10);
  EXPECT_EQ(run.stats().memory_budget_bytes, options.max_memory_bytes);
  EXPECT_EQ(run.stats().memory_in_use_bytes, run.memory_budget().in_use_bytes());
}

TEST(ChaseMemoryTest, CappedRunIsBitExactPrefixOfUncappedRun) {
  ParsedProgram program = MustParse(kDivergingProgram);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  options.max_atoms = 1u << 12;
  ChaseResult base = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(base.outcome, ChaseOutcome::kResourceLimit);
  ASSERT_GT(base.stats.peak_memory_bytes, 0u);

  ChaseOptions capped = options;
  capped.max_memory_bytes = base.stats.peak_memory_bytes / 2;
  ChaseResult run = RunChase(program.rules, capped, program.facts);
  EXPECT_EQ(run.outcome, ChaseOutcome::kMemoryBudgetExceeded);
  ASSERT_LE(run.instance.size(), base.instance.size());
  for (AtomId id = 0; id < run.instance.size(); ++id) {
    const AtomView capped_atom = run.instance.atom(id);
    const AtomView base_atom = base.instance.atom(id);
    ASSERT_EQ(capped_atom.predicate, base_atom.predicate) << "atom " << id;
    ASSERT_EQ(capped_atom.arity(), base_atom.arity()) << "atom " << id;
    for (uint32_t i = 0; i < capped_atom.arity(); ++i) {
      ASSERT_EQ(capped_atom.args[i], base_atom.args[i]) << "atom " << id;
    }
  }
}

TEST(ChaseMemoryTest, InjectedAllocationFaultIsEngineInvariant) {
  // The kAllocation ordinal space does not depend on whether the run
  // records provenance (written at each flush of the staged head atoms):
  // a memory-budget fault injected at the same ordinal must stop both
  // configurations at the same prefix.
  ParsedProgram program = MustParse(kDivergingProgram);
  for (uint64_t target : {uint64_t{0}, uint64_t{2}, uint64_t{6}}) {
    struct Stop {
      const char* engine;
      uint64_t size;
      uint64_t applied;
    };
    std::vector<Stop> stops;
    struct Engine {
      const char* name;
      bool track_provenance;
    };
    for (const Engine& engine :
         {Engine{"staged", false}, Engine{"provenance", true}}) {
      auto fired = std::make_shared<std::atomic<bool>>(false);
      ChaseOptions options;
      options.variant = ChaseVariant::kOblivious;
      options.max_atoms = 1u << 12;
      options.track_provenance = engine.track_provenance;
      options.fault_injector = [fired, target](FaultSite site,
                                               uint64_t ordinal) {
        if (site == FaultSite::kAllocation && ordinal == target) {
          fired->store(true, std::memory_order_relaxed);
          return InjectedFault::kMemoryBudget;
        }
        return InjectedFault::kNone;
      };
      ChaseResult run = RunChase(program.rules, options, program.facts);
      ASSERT_TRUE(fired->load(std::memory_order_relaxed))
          << engine.name << " ordinal " << target;
      EXPECT_EQ(run.outcome, ChaseOutcome::kMemoryBudgetExceeded)
          << engine.name << " ordinal " << target;
      stops.push_back(
          Stop{engine.name, run.instance.size(), run.applied_triggers});
    }
    for (const Stop& stop : stops) {
      EXPECT_EQ(stop.size, stops.front().size)
          << stop.engine << " vs " << stops.front().engine << " at ordinal "
          << target;
      EXPECT_EQ(stop.applied, stops.front().applied)
          << stop.engine << " vs " << stops.front().engine << " at ordinal "
          << target;
    }
  }
}

TEST(ChaseMemoryTest, SharedBudgetDrainsWhenRunsDie) {
  // A budget shared across sequential runs: each run's storage releases
  // its charge on destruction (results are unbudgeted snapshots), so the
  // next phase inherits the full headroom.
  ParsedProgram program = MustParse("a(X) -> b(X).\na(c).\n");
  auto budget = std::make_shared<MemoryBudget>(uint64_t{1} << 24);
  ChaseOptions options;
  options.memory_budget = budget;
  ChaseResult first = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(first.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(budget->in_use_bytes(), 0u);
  ChaseResult second = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(second.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(budget->in_use_bytes(), 0u);
  EXPECT_GT(budget->peak_bytes(), 0u);
}

TEST(ChaseMemoryTest, PeakCoversTriggerKeyTables) {
  // Transitive closure of a 150-edge chain: the trigger keys pile up over
  // 150 rounds while each round's discovery rows stay few, so the key
  // tables are a large share of what the run retains. A key costs at
  // least its words in its table's arena plus, at max load 1/2, two
  // 8-byte slots; all of it must be charged beside the instance.
  std::string text =
      "e(X,Y) -> p(X,Y).\n"
      "p(X,Y), e(Y,Z) -> p(X,Z).\n";
  for (int i = 0; i < 150; ++i) {
    text += "e(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
  }
  ParsedProgram program = MustParse(text);
  ChaseOptions options;
  options.variant = ChaseVariant::kOblivious;
  ChaseRun run(program.rules, options, program.facts);
  ASSERT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  const ChaseStats& stats = run.stats();
  uint64_t key_bytes = 0;
  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    key_bytes += stats.per_rule[r].discovered *
                 (run.TriggerKeyVariables(r).size() * sizeof(uint32_t) +
                  2 * sizeof(uint64_t));
  }
  EXPECT_GT(key_bytes, uint64_t{300} << 10);
  EXPECT_GE(stats.memory_in_use_bytes,
            run.instance().MemoryFootprint() + key_bytes);
  EXPECT_GE(stats.peak_memory_bytes, stats.memory_in_use_bytes);
}

TEST(ChaseMemoryTest, AmpleBudgetLeavesTheRunUntouched) {
  ParsedProgram program = MustParse("p(X) -> q(X,Y).\np(a).\np(b).\n");
  ChaseOptions plain;
  ChaseResult base = RunChase(program.rules, plain, program.facts);
  ASSERT_EQ(base.outcome, ChaseOutcome::kTerminated);

  ChaseOptions budgeted = plain;
  budgeted.max_memory_bytes = uint64_t{64} << 20;
  ChaseResult run = RunChase(program.rules, budgeted, program.facts);
  EXPECT_EQ(run.outcome, ChaseOutcome::kTerminated);
  ASSERT_EQ(run.instance.size(), base.instance.size());
  EXPECT_EQ(run.applied_triggers, base.applied_triggers);
  EXPECT_GT(run.stats.peak_memory_bytes, 0u);
  EXPECT_EQ(run.stats.memory_budget_bytes, budgeted.max_memory_bytes);
}

// -------------------------------------------------------------------------
// Decider degradation: a memory trip is kUnknown with reason kMemory —
// never divergence evidence.

TEST(DeciderMemoryTest, MemoryCapDegradesToUnknownWithMemoryReason) {
  ParsedProgram program = MustParse(kDivergingProgram);
  DeciderOptions options;
  options.max_memory_bytes = 1u << 10;  // far below any useful exploration
  StatusOr<DeciderResult> result =
      DecideTermination(program.rules, &program.vocabulary,
                        ChaseVariant::kOblivious, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, TerminationVerdict::kUnknown);
  EXPECT_EQ(result->unknown.reason, StopReason::kMemory);
  EXPECT_EQ(result->unknown.phase, "exact");
}

}  // namespace
}  // namespace gchase
