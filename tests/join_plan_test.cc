// Tests for the discovery unit engine (ChaseRun::DiscoverTriggers): every
// (rule, pivot) unit runs the range-clipped backtracking search into a
// BindingSegment. Covers BindingSegment budget mechanics and — the core
// contract — bit-identity of the engine with the reference chase across
// the variant x order grid and discovery-cap sweeps, plus pinned results
// under join-work caps and deterministic fault-injection abort points.

#include <string>
#include <utility>
#include <vector>

#include "base/memory_budget.h"
#include "chase/batch_apply.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "storage/homomorphism.h"
#include "storage/instance.h"
#include "tests/reference_twin.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

// -------------------------------------------------------------------------
// BindingSegment budget mechanics (the HeadBlock ratchet contract).

TEST(BindingSegmentTest, ChargesCapacityGrowthAndReleasesOnDetach) {
  MemoryBudget budget(0);  // unlimited, but tracks charges
  {
    BindingSegment segment;
    segment.SetMemoryBudget(&budget);
    segment.SetWidth(2);
    const Term row[] = {Term::Constant(1), Term::Constant(2)};
    for (int i = 0; i < 100; ++i) segment.AppendRow(row);
    EXPECT_EQ(segment.rows(), 100u);
    EXPECT_EQ(budget.in_use_bytes(), segment.capacity_bytes());
    // Clear keeps capacity, so the charge stays (high-water ratchet).
    segment.Clear();
    EXPECT_EQ(budget.in_use_bytes(), segment.capacity_bytes());
  }
  // Destruction releases the full charge.
  EXPECT_EQ(budget.in_use_bytes(), 0u);
}

TEST(BindingSegmentTest, RowsRoundTrip) {
  BindingSegment segment;
  segment.SetWidth(3);
  const Term a[] = {Term::Constant(1), UnboundTerm(), Term::Constant(3)};
  const Term b[] = {Term::Constant(4), Term::Constant(5), UnboundTerm()};
  segment.AppendRow(a);
  segment.AppendRow(b);
  ASSERT_EQ(segment.rows(), 2u);
  EXPECT_EQ(segment.row(0)[0], Term::Constant(1));
  EXPECT_EQ(segment.row(0)[1], UnboundTerm());
  EXPECT_EQ(segment.row(1)[1], Term::Constant(5));
}

// -------------------------------------------------------------------------
// Bit-identity: the engine vs the reference chase across variants,
// orders and caps; join-work caps, which the reference does not meter,
// against pinned results.

/// A workload exercising every body shape at once: a two-conjunct join
/// (closure), a unary rule with an existential multi-atom head, a
/// constant in a body position, a repeated variable, and a
/// three-conjunct rule sharing predicates with the rest.
ParsedProgram MixedWorkload() {
  std::string text =
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(X,Y) -> p(X,W), q(W), e(Y,W).\n"
      "p(X,Y), q(Y) -> r(X).\n"
      "e(n0,X) -> s(X).\n"
      "e(X,X) -> loop(X).\n"
      "p(X,A), q(A), r(X) -> t(X).\n";
  for (int i = 0; i < 8; ++i) {
    text += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text);
}

TEST(JoinPlanTest, BitIdenticalAcrossVariantsAndOrders) {
  // The variant x order grid, uncapped and under each count cap the
  // reference honors.
  ParsedProgram program = MixedWorkload();
  struct Regime {
    const char* name;
    uint64_t ChaseOptions::*cap;
    uint64_t value;
  };
  const Regime regimes[] = {
      {"uncapped", &ChaseOptions::max_atoms, 4000},
      {"max_steps", &ChaseOptions::max_steps, 23},
      {"max_atoms", &ChaseOptions::max_atoms, 25},
      {"max_nulls", &ChaseOptions::max_nulls, 5},
      {"max_homs", &ChaseOptions::max_hom_discoveries, 40},
  };
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (TriggerOrder order :
         {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
          TriggerOrder::kRandom}) {
      for (const Regime& regime : regimes) {
        ChaseOptions options;
        options.variant = variant;
        options.order = order;
        options.order_seed = 0x9e3779b97f4a7c15ull;
        options.max_atoms = 4000;
        options.max_steps = 4000;
        options.*regime.cap = regime.value;
        ExpectMatchesReference(program, options,
                               std::string(ChaseVariantName(variant)) +
                                   "/order=" +
                                   std::to_string(static_cast<int>(order)) +
                                   "/" + regime.name);
      }
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderStepCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 7u, 23u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_steps = cap;
      ExpectMatchesReference(program, options,
                             std::string(ChaseVariantName(variant)) +
                                 "/max_steps=" + std::to_string(cap));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderHomDiscoveryCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 9u, 40u, 150u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_hom_discoveries = cap;
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectMatchesReference(program, options,
                             std::string(ChaseVariantName(variant)) +
                                 "/max_homs=" + std::to_string(cap));
    }
  }
}

TEST(JoinPlanTest, BitIdenticalUnderJoinWorkCap) {
  // A join-work cap stops a round at a point that depends on what the
  // earlier units charged; each unit gets only what its predecessors
  // left. The reference does not meter join work, so the results are
  // pinned: outcome, atoms, applied triggers and join_work as recorded
  // for this workload.
  struct Pinned {
    ChaseVariant variant;
    uint64_t cap;
    ChaseOutcome outcome;
    uint64_t atoms;
    uint64_t applied;
    uint64_t join_work;
  };
  constexpr ChaseOutcome kCapped = ChaseOutcome::kResourceLimit;
  const Pinned pinned[] = {
      {ChaseVariant::kOblivious, 1, kCapped, 8, 0, 2},
      {ChaseVariant::kOblivious, 30, kCapped, 36, 14, 31},
      {ChaseVariant::kOblivious, 111, kCapped, 66, 48, 112},
      {ChaseVariant::kOblivious, 500, kCapped, 196, 211, 501},
      {ChaseVariant::kOblivious, 2000, kCapped, 884, 863, 2001},
      {ChaseVariant::kSemiOblivious, 1, kCapped, 8, 0, 2},
      {ChaseVariant::kSemiOblivious, 30, kCapped, 36, 14, 31},
      {ChaseVariant::kSemiOblivious, 111, kCapped, 66, 42, 112},
      {ChaseVariant::kSemiOblivious, 500, kCapped, 196, 142, 501},
      {ChaseVariant::kSemiOblivious, 2000, kCapped, 884, 540, 2001},
      {ChaseVariant::kRestricted, 1, kCapped, 8, 0, 2},
      {ChaseVariant::kRestricted, 30, kCapped, 36, 14, 38},
      {ChaseVariant::kRestricted, 111, kCapped, 63, 39, 135},
      {ChaseVariant::kRestricted, 500, kCapped, 184, 130, 565},
      {ChaseVariant::kRestricted, 2000, kCapped, 524, 388, 2193},
  };
  ParsedProgram program = MixedWorkload();
  for (const Pinned& expected : pinned) {
    ChaseOptions options;
    options.variant = expected.variant;
    options.max_join_work = expected.cap;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    const ChaseResult run = RunChase(program.rules, options, program.facts);
    const std::string context =
        std::string(ChaseVariantName(expected.variant)) +
        "/max_join_work=" + std::to_string(expected.cap);
    EXPECT_EQ(run.outcome, expected.outcome) << context;
    EXPECT_EQ(run.instance.size(), expected.atoms) << context;
    EXPECT_EQ(run.applied_triggers, expected.applied) << context;
    EXPECT_EQ(run.join_work, expected.join_work) << context;
    // Deterministic: a second run is the same run, join_work included.
    ExpectSameRun(run, RunChase(program.rules, options, program.facts),
                  /*compare_join_work=*/true, context);
  }
}

// -------------------------------------------------------------------------
// Fault-injection abort points: a run stopped at a deterministic abort
// stops the same way every time, with an instance that is an atom-for-atom
// prefix of the unfaulted run's.

void ExpectDeterministicPrefixAbort(const ParsedProgram& program,
                                    const ChaseOptions& options,
                                    const std::string& context) {
  const ChaseResult first = RunChase(program.rules, options, program.facts);
  const ChaseResult second = RunChase(program.rules, options, program.facts);
  ExpectSameRun(first, second, /*compare_join_work=*/true, context);
  ChaseOptions unfaulted = options;
  unfaulted.fault_injector = nullptr;
  const ChaseResult full = RunChase(program.rules, unfaulted, program.facts);
  const std::vector<Atom> atoms = first.instance.MaterializeAtoms();
  const std::vector<Atom> full_atoms = full.instance.MaterializeAtoms();
  ASSERT_LE(atoms.size(), full_atoms.size()) << context;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    ASSERT_TRUE(atoms[i] == full_atoms[i]) << context << " atom " << i;
  }
}

TEST(JoinPlanTest, FaultAtDiscoveryUnitAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t ordinal : {0u, 3u, 7u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [ordinal](FaultSite site, uint64_t o) {
      return site == FaultSite::kDiscovery && o == ordinal
                 ? InjectedFault::kCancel
                 : InjectedFault::kNone;
    };
    ExpectDeterministicPrefixAbort(
        program, options, "discovery-ordinal=" + std::to_string(ordinal));
  }
}

TEST(JoinPlanTest, FaultAtRoundStartAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t round : {0u, 1u, 2u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [round](FaultSite site, uint64_t o) {
      return site == FaultSite::kRoundStart && o == round
                 ? InjectedFault::kDeadline
                 : InjectedFault::kNone;
    };
    ExpectDeterministicPrefixAbort(program, options,
                                   "round-start=" + std::to_string(round));
  }
}

TEST(JoinPlanTest, FaultAtTriggerApplyAbortsIdentically) {
  ParsedProgram program = MixedWorkload();
  for (uint64_t ordinal : {0u, 2u, 9u}) {
    ChaseOptions options;
    options.max_atoms = 4000;
    options.max_steps = 4000;
    options.fault_injector = [ordinal](FaultSite site, uint64_t o) {
      return site == FaultSite::kTriggerApply && o == ordinal
                 ? InjectedFault::kResourceLimit
                 : InjectedFault::kNone;
    };
    ExpectDeterministicPrefixAbort(
        program, options, "trigger-apply=" + std::to_string(ordinal));
  }
}

// -------------------------------------------------------------------------
// Unit stats surface.

TEST(JoinPlanTest, StatsReportPlanActivity) {
  ParsedProgram program = MixedWorkload();
  ChaseOptions options;
  options.max_atoms = 4000;
  options.max_steps = 4000;

  const ChaseResult run = RunChase(program.rules, options, program.facts);
  uint64_t units = 0, binding_rows = 0;
  const std::vector<RoundStats>& rounds = run.stats.per_round;
  ASSERT_GT(rounds.size(), 1u);
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    units += rounds[i].fallback_units;
    binding_rows += rounds[i].binding_rows;
    // Every (rule, pivot) unit runs the search and counts as a fallback
    // unit: 2 + 1 + 2 + 1 + 1 + 3 of them. The step cap binds in the last
    // round, whose pass stops at the unit where the cap bound.
    EXPECT_EQ(rounds[i].plan_units, 0u) << "round " << i;
    if (i + 1 < rounds.size()) {
      EXPECT_EQ(rounds[i].fallback_units, 10u) << "round " << i;
    } else {
      EXPECT_LE(rounds[i].fallback_units, 10u);
    }
  }
  EXPECT_GT(units, 0u);
  EXPECT_GT(binding_rows, 0u);
}

// -------------------------------------------------------------------------
// One unit's search: enumeration order is id-lexicographic in the search's
// conjunct order, under the semi-naive ranges a (rule, pivot) unit uses.

TEST(PlanExecutorTest, EnumeratesInIdLexOrderWithDeltaPivot) {
  ParsedProgram program = MustParse(
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(a,b). e(b,c). e(c,d).\n");
  Instance instance;
  for (const Atom& atom : program.facts) instance.Insert(atom);
  const Tgd& rule = program.rules.rule(0);
  HomomorphismFinder finder(instance);
  const auto run_unit = [&](std::vector<MatchRange> ranges, AtomId watermark,
                            uint64_t* visits) {
    HomSearchOptions search;
    search.ranges = std::move(ranges);
    search.watermark = watermark;
    search.visits = visits;
    std::vector<Binding> out;
    finder.FindAllWithOptions(rule.body(), rule.num_variables(), search,
                              Binding(), [&out](const Binding& binding) {
                                out.push_back(binding);
                                return true;
                              });
    return out;
  };

  // Watermark 0: everything is delta. Pivot 0 with the kDeltaOnly/kAll
  // split enumerates both chain joins (a,b,c) and (b,c,d) in id order.
  uint64_t visits = 0;
  std::vector<Binding> rows =
      run_unit({MatchRange::kDeltaOnly, MatchRange::kAll}, 0, &visits);
  ASSERT_EQ(rows.size(), 2u);
  const uint32_t x = rule.body()[0].args[0].index();
  EXPECT_EQ(rows[0][x], instance.atom(0).args[0]);
  EXPECT_EQ(rows[1][x], instance.atom(1).args[0]);

  // Pivot 1 with the watermark past the whole instance: empty delta, no
  // rows, and the visits are the unclipped lists the search walked — all
  // 3 e-atoms at depth zero, then e(Y,·) for Y = b, c, d (1 + 1 + 0).
  visits = 0;
  rows = run_unit({MatchRange::kOldOnly, MatchRange::kDeltaOnly},
                  instance.size(), &visits);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(visits, 5u);
}

}  // namespace
}  // namespace gchase
