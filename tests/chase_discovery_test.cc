// Tests of serial trigger discovery (one unit at a time, each merged
// before the next runs), the ChaseStats observability layer, and the
// chase-engine correctness fixes that rode along with them (null-cap
// overflow safety, decorrelated kRandom seeding, full RunChase result
// plumbing).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "generator/workloads.h"
#include "gtest/gtest.h"
#include "model/parser.h"
#include "termination/decider.h"
#include "tests/reference_twin.h"
#include "tests/test_util.h"

namespace gchase {
namespace {

ParsedProgram MakeUniversityInstance(uint32_t num_students) {
  StatusOr<NamedWorkload> workload = FindWorkload("dl_lite_university");
  GCHASE_CHECK(workload.ok());
  std::string text = workload->program;
  for (uint32_t i = 0; i < num_students; ++i) {
    text += "student(s" + std::to_string(i) + ").\n";
    if (i % 2 == 0) {
      text += "enrolledIn(s" + std::to_string(i) + ", c" +
              std::to_string(i / 2) + ").\n";
    }
  }
  return MustParse(text);
}

ParsedProgram MakeClosureInstance(uint32_t chain_length) {
  std::string text = "e(X,Y), e(Y,Z) -> e(X,Z).\n";
  for (uint32_t i = 0; i < chain_length; ++i) {
    text += "e(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  return MustParse(text);
}

// --- the discovery loop ---------------------------------------------------
// Discovery runs its units one at a time; the ParallelDiscoveryTest cases
// once compared it with a multi-threaded engine and now pin it against
// the reference chase (fuzz/reference_chase.h) and the decider.

TEST(ParallelDiscoveryTest, BitIdenticalOnE7WorkloadsAllVariants) {
  ParsedProgram university = MakeUniversityInstance(50);
  ParsedProgram closure = MakeClosureInstance(20);
  const std::vector<std::pair<const char*, const ParsedProgram*>> entries = {
      {"university", &university}, {"closure", &closure}};
  for (const auto& entry : entries) {
    for (ChaseVariant variant :
         {ChaseVariant::kRestricted, ChaseVariant::kSemiOblivious,
          ChaseVariant::kOblivious}) {
      ChaseOptions options;
      options.variant = variant;
      options.max_atoms = 200000;
      ExpectMatchesReference(
          *entry.second, options,
          std::string(entry.first) + "/" + ChaseVariantName(variant));
    }
  }
}

TEST(ParallelDiscoveryTest, BitIdenticalForEveryTriggerOrder) {
  ParsedProgram program = MakeUniversityInstance(30);
  for (TriggerOrder order :
       {TriggerOrder::kFifo, TriggerOrder::kDatalogFirst,
        TriggerOrder::kRandom}) {
    ChaseOptions options;
    options.order = order;
    options.order_seed = 17;
    options.max_atoms = 200000;
    ExpectMatchesReference(
        program, options,
        "order=" + std::to_string(static_cast<int>(order)));
  }
}

TEST(ParallelDiscoveryTest, CappedRunStillReportsResourceLimit) {
  // Invariant 4 of docs/architecture.md: a binding cap must never be
  // misreported as termination.
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y), person(Y).\n"
      "person(bob).\n");
  ChaseOptions atom_capped;
  atom_capped.max_atoms = 100;
  EXPECT_EQ(RunChase(program.rules, atom_capped, program.facts).outcome,
            ChaseOutcome::kResourceLimit);
  ChaseOptions hom_capped;
  hom_capped.max_hom_discoveries = 10;
  EXPECT_EQ(RunChase(program.rules, hom_capped, program.facts).outcome,
            ChaseOutcome::kResourceLimit);
}

TEST(ParallelDiscoveryTest, DeciderVerdictIsThreadCountInvariant) {
  // DeciderOptions::discovery_threads is never forwarded to the chase:
  // any value yields the serial run.
  StatusOr<NamedWorkload> diverging = FindWorkload("restricted_order_sensitive");
  ASSERT_TRUE(diverging.ok());
  StatusOr<ParsedProgram> program = LoadWorkload(*diverging);
  ASSERT_TRUE(program.ok());
  DeciderOptions serial_options;
  StatusOr<DeciderResult> serial = DecideTermination(
      program->rules, &program->vocabulary, ChaseVariant::kSemiOblivious,
      serial_options);
  DeciderOptions threaded_options;
  threaded_options.discovery_threads = 4;
  StatusOr<DeciderResult> threaded = DecideTermination(
      program->rules, &program->vocabulary, ChaseVariant::kSemiOblivious,
      threaded_options);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(serial->verdict, threaded->verdict);
  EXPECT_EQ(serial->applied_triggers, threaded->applied_triggers);
  EXPECT_EQ(serial->join_work, threaded->join_work);
}

TEST(DiscoveryTest, CappedRoundPollsEachUnitOnce) {
  // Five (rule, pivot) units. A hom cap that binds inside a round must
  // stop that round's one pass at the unit that reaches it; no unit is
  // run, and so polled at its kDiscovery checkpoint, a second time.
  ParsedProgram program = MustParse(
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(X,Y) -> n(X).\n"
      "n(X), e(X,Y) -> m(Y).\n"
      "e(a,b). e(b,c). e(c,d). e(d,f). e(f,g). e(g,h). e(h,i). e(i,j).\n");
  struct Polls {
    std::vector<uint32_t> per_unit;
    uint32_t max = 0;
    uint64_t passes = 0;
  };
  const auto run_with_cap = [&program](uint64_t cap, Polls* polls) {
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.max_hom_discoveries = cap;
    options.fault_injector = [polls](FaultSite site, uint64_t ordinal) {
      if (site == FaultSite::kRoundStart) {
        // A pass starts: its units are polled afresh.
        polls->per_unit.assign(5, 0);
        ++polls->passes;
      } else if (site == FaultSite::kDiscovery) {
        polls->max = std::max(polls->max, ++polls->per_unit.at(ordinal));
      }
      return InjectedFault::kNone;
    };
    return RunChase(program.rules, options, program.facts);
  };

  Polls uncapped_polls;
  const ChaseResult uncapped =
      run_with_cap(std::numeric_limits<uint64_t>::max(), &uncapped_polls);
  ASSERT_EQ(uncapped.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(uncapped_polls.max, 1u);
  ASSERT_GE(uncapped.hom_discoveries, 8u);
  // Sweep caps across the whole run: each binds inside some round.
  uint64_t capped_runs = 0;
  for (uint64_t cap = 1; cap < uncapped.hom_discoveries; cap += 3) {
    Polls polls;
    const ChaseResult capped = run_with_cap(cap, &polls);
    ASSERT_EQ(capped.outcome, ChaseOutcome::kResourceLimit) << cap;
    EXPECT_EQ(capped.hom_discoveries, cap);
    EXPECT_EQ(polls.max, 1u) << "cap " << cap;
    ++capped_runs;
  }
  EXPECT_GE(capped_runs, 3u);
}

// --- ChaseStats plumbing -------------------------------------------------

TEST(ChaseStatsTest, RunChaseExposesAllCounters) {
  ParsedProgram program = MakeClosureInstance(10);
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(result.outcome, ChaseOutcome::kTerminated);

  // The convenience wrapper must not drop work counters: callers capping
  // discovery work need them to observe headroom.
  EXPECT_GT(result.hom_discoveries, 0u);
  EXPECT_GT(result.join_work, 0u);
  EXPECT_GE(result.hom_discoveries, result.applied_triggers);

  ASSERT_EQ(result.stats.per_rule.size(), program.rules.size());
  uint64_t applied = 0;
  for (const RuleStats& rule : result.stats.per_rule) {
    applied += rule.applied;
  }
  EXPECT_EQ(applied, result.applied_triggers);

  ASSERT_EQ(result.stats.per_round.size(), result.rounds);
  uint64_t round_applied = 0;
  for (const RoundStats& round : result.stats.per_round) {
    EXPECT_GT(round.delta_atoms, 0u);
    EXPECT_GT(round.candidates, 0u);
    EXPECT_GE(round.discovery_seconds, 0.0);
    EXPECT_GE(round.apply_seconds, 0.0);
    round_applied += round.applied;
  }
  EXPECT_EQ(round_applied, result.applied_triggers);

  EXPECT_EQ(result.stats.peak_atoms, result.instance.size());
  EXPECT_EQ(result.stats.peak_position_index_entries,
            uint64_t{result.instance.size()} * 2);  // binary predicate
  EXPECT_GT(result.stats.peak_position_index_keys, 0u);
  EXPECT_GT(result.stats.peak_dedup_keys, 0u);
  EXPECT_EQ(result.stats.parallel_rounds, 0u);
}

TEST(ChaseStatsTest, RestrictedSkipsAreCounted) {
  ParsedProgram program = MustParse(
      "person(X) -> hasFather(X,Y).\n"
      "person(bob). hasFather(bob,carl).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  ASSERT_EQ(result.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(result.applied_triggers, 0u);
  EXPECT_EQ(result.stats.per_rule[0].discovered, 1u);
  EXPECT_EQ(result.stats.per_rule[0].skipped_satisfied, 1u);
  EXPECT_EQ(result.stats.per_rule[0].applied, 0u);
}

// --- null-cap overflow safety -------------------------------------------

TEST(NullCapTest, BoundaryAtTheCapIsExact) {
  // Each trigger creates two nulls. With max_nulls = 3 the first trigger
  // fits (2 nulls) and the second must be refused without wrapping or
  // overshooting: exactly 2 nulls allocated.
  ParsedProgram program = MustParse(
      "p(X) -> q(X,Y), r(X,Z).\n"
      "p(a). p(b).\n");
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_nulls = 3;
  ChaseResult result = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
  EXPECT_EQ(result.nulls_created, 2u);

  // max_nulls = 4 admits both triggers and the run terminates.
  options.max_nulls = 4;
  ChaseResult exact = RunChase(program.rules, options, program.facts);
  EXPECT_EQ(exact.outcome, ChaseOutcome::kTerminated);
  EXPECT_EQ(exact.nulls_created, 4u);
}

TEST(NullCapTest, HugeCapDoesNotWrapTheGuard) {
  // Regression: with a 32-bit null counter the guard `next + k > cap`
  // wrapped for caps near the type maximum. The check must stay exact for
  // the full 64-bit range of max_nulls.
  ParsedProgram program = MustParse(
      "p(X) -> p(Y).\n"
      "p(a).\n");
  for (uint64_t cap :
       {std::numeric_limits<uint64_t>::max(),
        std::numeric_limits<uint64_t>::max() - 1,
        uint64_t{1} << 32}) {
    ChaseOptions options;
    options.variant = ChaseVariant::kOblivious;
    options.max_nulls = cap;
    options.max_atoms = 50;  // the binding cap
    ChaseResult result = RunChase(program.rules, options, program.facts);
    EXPECT_EQ(result.outcome, ChaseOutcome::kResourceLimit);
    // The null guard must not fire spuriously: the atom cap binds first,
    // so nulls track atoms, not some wrapped remnant of the null cap.
    EXPECT_GT(result.nulls_created, 10u);
  }
}

// --- kRandom seed decorrelation -----------------------------------------

TEST(RandomOrderSeedingTest, MixedStreamsAreDistinctAcrossSeedRoundGrid) {
  // Regression: Rng(seed + round) made (s, r+1) replay (s+1, r). The
  // SplitMix64 mix must give a distinct stream for every (seed, round)
  // pair — in particular along the diagonals that used to collide.
  std::set<uint64_t> first_draws;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (uint64_t round = 1; round <= 64; ++round) {
      Rng rng(SplitMix64(seed ^ SplitMix64(round)));
      first_draws.insert(rng.NextUint64());
    }
  }
  EXPECT_EQ(first_draws.size(), 64u * 64u);
}

TEST(RandomOrderSeedingTest, AdjacentSeedsDivergeInTheEngine) {
  // A workload with enough triggers per round that distinct shuffles are
  // overwhelmingly likely to differ somewhere in the trigger sequence.
  ParsedProgram program = MakeClosureInstance(12);
  auto sequence_for = [&](uint64_t seed) {
    ChaseOptions options;
    options.variant = ChaseVariant::kSemiOblivious;
    options.order = TriggerOrder::kRandom;
    options.order_seed = seed;
    options.track_provenance = true;
    ChaseRun run(program.rules, options, program.facts);
    run.Execute();
    std::vector<Binding> bindings;
    bindings.reserve(run.triggers().size());
    for (const TriggerRecord& record : run.triggers()) {
      bindings.push_back(record.binding);
    }
    return bindings;
  };
  std::vector<Binding> base = sequence_for(1);
  bool any_diverged = false;
  for (uint64_t seed = 2; seed <= 5 && !any_diverged; ++seed) {
    any_diverged = sequence_for(seed) != base;
  }
  EXPECT_TRUE(any_diverged);
  // Same seed replays the same sequence (determinism is untouched).
  EXPECT_EQ(sequence_for(1), base);
}

}  // namespace
}  // namespace gchase
