// Tests for the apply path (chase/batch_apply.{h,cc}): bit-identity with
// the reference chase across the variant x order x cap-regime grid, with
// and without provenance (which must flush the very same blocks); the
// observer's view of a trigger's complete record; the restricted-chase
// flush-before-head-check ordering; HeadBlock segment mechanics; and the
// governed head-satisfaction check (deterministic fault injection + a
// wall-clock adversarial head join).

#include "chase/batch_apply.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "base/timer.h"
#include "chase/chase.h"
#include "gtest/gtest.h"
#include "storage/instance.h"
#include "tests/reference_twin.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

// -------------------------------------------------------------------------
// Bit-identity: engine vs reference over variants, orders, cap regimes.

/// Asserts full bit-identity of the engine against the reference chase,
/// once without and once with provenance, that every applied trigger went
/// through the one apply path, and that the provenance run flushes
/// exactly the blocks of the staged run, round by round.
void ExpectTwinsIdentical(const ParsedProgram& program, ChaseOptions options,
                          const std::string& context) {
  std::vector<uint64_t> blocks[2];
  for (bool provenance : {false, true}) {
    options.track_provenance = provenance;
    const std::string where =
        context + (provenance ? " (provenance)" : " (staged)");
    const ChaseResult engine = ExpectMatchesReference(program, options, where);
    for (std::size_t i = 0; i < engine.stats.per_round.size(); ++i) {
      const RoundStats& round = engine.stats.per_round[i];
      EXPECT_EQ(round.batched_triggers, round.applied)
          << where << " round " << i;
      blocks[provenance].push_back(round.batch_blocks);
    }
  }
  EXPECT_EQ(blocks[true], blocks[false])
      << context << ": per-round batch_blocks, provenance vs staged";
}

/// A workload exercising every batch mechanism at once: existential
/// heads (null ranges), a multi-atom head (segmented flush), a full
/// Datalog rule (ground fast path under restricted), and enough facts
/// that rounds carry multi-trigger batches.
ParsedProgram MixedWorkload() {
  std::string text =
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(X,Y) -> p(X,W), q(W), e(Y,W).\n"
      "p(X,Y), q(Y) -> r(X).\n";
  for (int i = 0; i < 8; ++i) {
    text += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text);
}

TEST(BatchApplyTest, BitIdenticalAcrossVariantsAndOrders) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (TriggerOrder order :
         {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
          TriggerOrder::kRandom}) {
      ChaseOptions options;
      options.variant = variant;
      options.order = order;
      options.order_seed = 0x9e3779b97f4a7c15ull;
      // Keep diverging variants bounded: the caps themselves must trip
      // identically (checked in the capped tests below); here the grid
      // stays within budget.
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/order=" +
                               std::to_string(static_cast<int>(order)));
    }
  }
}

TEST(BatchApplyTest, BitIdenticalUnderStepCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 7u, 23u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_steps = cap;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_steps=" + std::to_string(cap));
    }
  }
}

TEST(BatchApplyTest, BitIdenticalUnderAtomCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    // Sweep the cap across block boundaries: mid-trigger trips (a
    // multi-atom head straddling the cap) are where the careful mode and
    // the reference must agree on which head atoms still land.
    for (uint64_t cap : {9u, 10u, 11u, 12u, 25u, 60u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_atoms = cap;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_atoms=" + std::to_string(cap));
    }
  }
}

TEST(BatchApplyTest, BitIdenticalUnderNullCap) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    for (uint64_t cap : {1u, 5u, 17u}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_nulls = cap;
      options.max_atoms = 4000;
      options.max_steps = 4000;
      ExpectTwinsIdentical(program, options,
                           std::string(ChaseVariantName(variant)) +
                               "/max_nulls=" + std::to_string(cap));
    }
  }
}

// -------------------------------------------------------------------------
// Observer notification: per trigger, after the trigger's record is
// complete, whichever flush point put its atoms into the instance.

TEST(BatchApplyTest, ObserverSeesCompleteTriggerRecord) {
  ParsedProgram program = MixedWorkload();
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    // 60 crosses the atom cap mid-round (the cap-adjacent flushes);
    // 4000 stops on the step cap.
    for (uint64_t cap : {60u, 4000u}) {
      const std::string where = std::string(ChaseVariantName(variant)) +
                                "/max_atoms=" + std::to_string(cap);
      ChaseOptions options;
      options.variant = variant;
      options.track_provenance = true;
      options.max_atoms = cap;
      options.max_steps = 4000;
      ChaseRun run(program.rules, options, program.facts);
      int64_t last_seen = -1;
      uint64_t seen = 0;
      run.Execute([&](AtomId id) {
        const std::vector<TriggerRecord>& triggers = run.triggers();
        EXPECT_FALSE(triggers.empty()) << where;
        if (triggers.empty()) return false;
        const std::vector<AtomId>& produced = triggers.back().produced;
        EXPECT_NE(std::find(produced.begin(), produced.end(), id),
                  produced.end())
            << where << " atom " << id;
        EXPECT_EQ(run.provenance()[id].trigger, triggers.size() - 1)
            << where << " atom " << id;
        EXPECT_GT(static_cast<int64_t>(id), last_seen) << where;
        last_seen = id;
        ++seen;
        return true;
      });
      // Every derived atom was observed: exactly once, by the order check.
      EXPECT_EQ(seen, run.instance().size() - run.stats().edb_atoms) << where;
    }
  }
}

// -------------------------------------------------------------------------
// Restricted ordering: an earlier trigger in the same round satisfies a
// later one, so the batch path must flush before every head check.

TEST(BatchApplyTest, RestrictedSiblingSatisfactionMatchesPerTrigger) {
  // Round 1 discovers one trigger per rule (same-rule twins would merge
  // at discovery: both rules have an empty frontier). Applying the first
  // inserts q(c) — which satisfies the second trigger's head q(c) too:
  // the second must be *skipped*, exactly as the reference chase skips
  // it. A batch path that staged both heads without flushing would check
  // the second against a stale instance and fire it, inflating applied
  // counts.
  ParsedProgram program = MustParse(
      "p(X) -> q(c).\n"
      "r(X) -> q(c).\n"
      "p(a). r(b).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  ExpectTwinsIdentical(program, options, "sibling-satisfaction");

  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  EXPECT_EQ(run.applied_triggers(), 1u);
  EXPECT_EQ(run.stats().per_rule[1].skipped_satisfied, 1u);
  EXPECT_EQ(run.instance().size(), 3u);  // p(a), r(b), q(c).
}

TEST(BatchApplyTest, RestrictedSiblingSatisfactionThroughNullHeads) {
  // Same shape through existential heads, across two rules (same-rule
  // twins would be deduplicated at discovery by their shared frontier):
  // rule 0 fires first and inserts s(c, n0); rule 1's head s(c, W) is
  // then satisfied by that fresh null, so the restricted batch — which
  // flushes before every check — must skip it.
  ParsedProgram program = MustParse(
      "p(X) -> s(c,Z).\n"
      "q(X) -> s(c,W).\n"
      "p(a). q(b).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  ExpectTwinsIdentical(program, options, "sibling-null-satisfaction");

  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  EXPECT_EQ(run.nulls_created(), 1u);
  EXPECT_EQ(run.applied_triggers(), 1u);
  EXPECT_EQ(run.stats().per_rule[1].skipped_satisfied, 1u);
}

// -------------------------------------------------------------------------
// HeadBlock mechanics.

TEST(HeadBlockTest, ConsecutiveSameShapeRowsShareASegment) {
  HeadBlock block;
  Term* row = block.Append(/*pred=*/3, /*arity=*/2);
  row[0] = Term::Constant(1);
  row[1] = Term::Constant(2);
  row = block.Append(3, 2);
  row[0] = Term::Constant(2);
  row[1] = Term::Constant(3);
  EXPECT_EQ(block.atoms(), 2u);
  EXPECT_EQ(block.segments(), 1u);

  // A shape change opens a new segment; returning to the old shape does
  // not merge backwards (order preservation over segment count).
  row = block.Append(/*pred=*/4, /*arity=*/1);
  row[0] = Term::Constant(1);
  row = block.Append(3, 2);
  row[0] = Term::Constant(9);
  row[1] = Term::Constant(9);
  EXPECT_EQ(block.atoms(), 4u);
  EXPECT_EQ(block.segments(), 3u);
}

TEST(HeadBlockTest, FlushPreservesInsertionOrderAndDedups) {
  HeadBlock block;
  auto stage = [&block](PredicateId pred, uint32_t a, uint32_t b) {
    Term* row = block.Append(pred, 2);
    row[0] = Term::Constant(a);
    row[1] = Term::Constant(b);
  };
  stage(7, 1, 2);
  stage(7, 1, 2);  // In-batch duplicate: dropped by TryAddBatch.
  stage(7, 3, 4);
  stage(8, 1, 1);

  Instance instance;
  const Term pre[] = {Term::Constant(3), Term::Constant(4)};
  instance.TryAddTerms(7, pre, 2);  // Pre-existing duplicate of stage #3.

  EXPECT_EQ(block.FlushInto(&instance), 2u);  // Two segments flushed.
  ASSERT_EQ(instance.size(), 3u);
  // Ids are append-ordered exactly as one-at-a-time TryAdd would assign.
  const Term first[] = {Term::Constant(1), Term::Constant(2)};
  EXPECT_EQ(instance.FindTerms(7, first, 2), std::optional<AtomId>(1u));
  const Term last[] = {Term::Constant(1), Term::Constant(1)};
  EXPECT_EQ(instance.FindTerms(8, last, 2), std::optional<AtomId>(2u));

  block.Clear();
  EXPECT_TRUE(block.empty());
  EXPECT_EQ(block.segments(), 0u);
}

// -------------------------------------------------------------------------
// Governed head checks: deterministic fault injection at kHeadCheck.

TEST(BatchApplyTest, HeadCheckFaultStopsAtExactCheck) {
  // Restricted chase of three p-facts: three head checks in round 1.
  // Aborting at head-check ordinal 1 leaves exactly one applied trigger
  // (check 0 fired it), staged or direct.
  for (bool provenance : {false, true}) {
    ParsedProgram program = MustParse(
        "p(X) -> q(X).\n"
        "p(a). p(b). p(c).\n");
    ChaseOptions options;
    options.variant = ChaseVariant::kRestricted;
    options.track_provenance = provenance;
    options.fault_injector = [](FaultSite site, uint64_t ordinal) {
      return site == FaultSite::kHeadCheck && ordinal == 1
                 ? InjectedFault::kDeadline
                 : InjectedFault::kNone;
    };
    ChaseRun run(program.rules, options, program.facts);
    EXPECT_EQ(run.Execute(), ChaseOutcome::kDeadlineExceeded)
        << "provenance=" << provenance;
    EXPECT_EQ(run.applied_triggers(), 1u) << "provenance=" << provenance;
    // The aborted run's partial instance is flushed and consistent: the
    // database plus the one applied trigger's head.
    EXPECT_EQ(run.instance().size(), 4u) << "provenance=" << provenance;
  }
}

TEST(BatchApplyTest, HeadCheckCancelSurfacesAsCancelled) {
  for (bool provenance : {false, true}) {
    ParsedProgram program = MustParse(
        "p(X) -> q(X).\n"
        "p(a). p(b).\n");
    ChaseOptions options;
    options.variant = ChaseVariant::kRestricted;
    options.track_provenance = provenance;
    options.fault_injector = [](FaultSite site, uint64_t ordinal) {
      return site == FaultSite::kHeadCheck && ordinal == 0
                 ? InjectedFault::kCancel
                 : InjectedFault::kNone;
    };
    ChaseRun run(program.rules, options, program.facts);
    EXPECT_EQ(run.Execute(), ChaseOutcome::kCancelled)
        << "provenance=" << provenance;
    EXPECT_EQ(run.applied_triggers(), 0u) << "provenance=" << provenance;
  }
}

// -------------------------------------------------------------------------
// The regression this PR's governing work exists for: an adversarial
// head-satisfaction join must not outlive the run's deadline.

/// Bipartite graph (triangle-free, odd-cycle-free) with edges both ways:
/// an odd-cycle head pattern over it can never match, so Exists() must
/// exhaust an O(n^5)-candidate search — unless the governor stops it.
ParsedProgram AdversarialHeadWorkload(uint32_t n) {
  // go(a) fires a rule whose head is a 5-cycle of existentials over e.
  std::string text =
      "go(X) -> e(Y1,Y2), e(Y2,Y3), e(Y3,Y4), e(Y4,Y5), e(Y5,Y1).\n";
  text += "go(a).\n";
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      text += "e(u" + std::to_string(i) + ", v" + std::to_string(j) + ").\n";
      text += "e(v" + std::to_string(j) + ", u" + std::to_string(i) + ").\n";
    }
  }
  return MustParse(text);
}

TEST(BatchApplyTest, AdversarialHeadCheckHonorsDeadline) {
  // Before the head check was governed, a 1 ms deadline still waited out
  // the full no-match search (hundreds of milliseconds to seconds at
  // this size). Now the check trips within its ~1k-visit governor
  // granularity; the generous wall-clock bound below only guards against
  // a regression to ungoverned behavior without making timing-sensitive
  // sanitizer runs flaky.
  ParsedProgram program = AdversarialHeadWorkload(12);
  for (bool provenance : {false, true}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kRestricted;
    options.track_provenance = provenance;
    options.deadline = Deadline::AfterMillis(1);
    WallTimer timer;
    ChaseRun run(program.rules, options, program.facts);
    ChaseOutcome outcome = run.Execute();
    const double elapsed = timer.ElapsedSeconds();
    EXPECT_EQ(outcome, ChaseOutcome::kDeadlineExceeded)
        << "provenance=" << provenance;
    EXPECT_LT(elapsed, 30.0) << "provenance=" << provenance;
    // The trigger must not have fired: a tripped check is inconclusive.
    EXPECT_EQ(run.applied_triggers(), 0u) << "provenance=" << provenance;
  }
}

TEST(BatchApplyTest, AdversarialHeadCheckHonorsJoinWorkCap) {
  // The same search bounded by count instead of clock: deterministic.
  ParsedProgram program = AdversarialHeadWorkload(8);
  for (bool provenance : {false, true}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kRestricted;
    options.track_provenance = provenance;
    options.max_join_work = 2000;
    ChaseRun run(program.rules, options, program.facts);
    EXPECT_EQ(run.Execute(), ChaseOutcome::kResourceLimit)
        << "provenance=" << provenance;
    EXPECT_EQ(run.applied_triggers(), 0u) << "provenance=" << provenance;
  }
}

// -------------------------------------------------------------------------
// Terminal discovery accounting (satellite: the empty last pass used to
// vanish from the stats).

TEST(BatchApplyTest, FinalDiscoveryPassIsAccounted) {
  ParsedProgram program = MustParse(
      "p(X) -> q(X).\n"
      "p(a). p(b).\n");
  ChaseOptions options;
  ChaseRun run(program.rules, options, program.facts);
  EXPECT_EQ(run.Execute(), ChaseOutcome::kTerminated);
  // The terminating empty pass ran real discovery work, so its wall time
  // is strictly positive (steady-clock deltas here are nanoseconds, not
  // zero). Peaks must have been folded after it (the final instance size
  // is the peak).
  EXPECT_GT(run.stats().final_discovery_seconds, 0.0);
  EXPECT_EQ(run.stats().peak_atoms, run.instance().size());
}

}  // namespace
}  // namespace gchase
