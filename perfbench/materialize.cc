// The two materialization workloads: parse the rules, bulk-load the CSV
// facts, seed a ChaseRun from the EDB (set-up), then Execute once (the
// operation). Every pass builds a fresh run from the same inputs.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "chase/chase.h"
#include "model/parser.h"
#include "storage/bulk_load.h"

namespace perfbench {
namespace {

using gchase::ChaseOptions;
using gchase::ChaseOutcome;
using gchase::ChaseRun;
using gchase::ChaseStats;
using gchase::ChaseVariant;

/// A materialization workload: inputs, engine options and the expected
/// result the benchmark derives independently of the library.
struct MaterializeSpec {
  std::string rules;
  std::string csv;
  uint64_t csv_rows = 0;
  ChaseOptions options;
  uint64_t expected_atoms = 0;
  uint64_t expected_triggers = 0;  ///< 0: not checked.
  /// Latency percentile reported as op_tail_ms. p75 leaves at least ten
  /// samples beyond it in a default-length run; on a shared 4-vCPU Xeon,
  /// p90 of the closure Execute spread 21% of its median over ten runs,
  /// p75 3%.
  double tail_quantile = 0.75;
};

/// Everything one pass measured.
struct PassRecord {
  double parse_s = 0, load_s = 0, seed_s = 0, execute_s = 0;
  double setup_s = 0, job_s = 0;
  ChaseOutcome outcome = ChaseOutcome::kTerminated;
  uint64_t seed_atoms = 0, atoms = 0, applied = 0, hom = 0, join_work = 0;
  uint64_t head_atoms_staged = 0, fingerprint = 0;
  bool is_model = true;
  ChaseStats stats;
};

uint64_t InstanceFingerprint(const gchase::Instance& instance) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (uint32_t id = 0; id < instance.size(); ++id) {
    const gchase::AtomView atom = instance.atom(id);
    mix(atom.predicate);
    for (gchase::Term t : atom.args) mix(t.raw());
  }
  return h;
}

/// One pass. Clock reads sit only at call boundaries, so the traced and
/// untraced runs execute identical code; the run mode only selects which
/// numbers are reported.
PassRecord RunPass(const MaterializeSpec& spec, bool check_model,
                   FailureLog* failures) {
  PassRecord pass;
  const Stopwatch job;
  Stopwatch clock;
  gchase::StatusOr<gchase::ParsedProgram> program =
      gchase::ParseProgram(spec.rules);
  pass.parse_s = clock.Seconds();
  if (!program.ok()) {
    failures->Fail("rules do not parse: " + program.status().ToString());
    return pass;
  }
  clock = Stopwatch();
  gchase::StatusOr<std::unique_ptr<gchase::InMemoryEdb>> edb =
      gchase::LoadCsvFacts(spec.csv);
  pass.load_s = clock.Seconds();
  if (!edb.ok()) {
    failures->Fail("facts do not load: " + edb.status().ToString());
    return pass;
  }
  clock = Stopwatch();
  ChaseRun run(program->rules, spec.options, **edb, &program->vocabulary);
  pass.seed_s = clock.Seconds();
  pass.setup_s = job.Seconds();
  if (!run.seed_status().ok()) {
    failures->Fail("seeding failed: " + run.seed_status().ToString());
    return pass;
  }
  pass.seed_atoms = run.instance().size();
  clock = Stopwatch();
  pass.outcome = run.Execute();
  pass.execute_s = clock.Seconds();
  pass.job_s = job.Seconds();

  pass.atoms = run.instance().size();
  pass.applied = run.applied_triggers();
  pass.hom = run.hom_discoveries();
  pass.join_work = run.join_work();
  pass.stats = run.stats();
  for (uint32_t r = 0; r < program->rules.size(); ++r) {
    pass.head_atoms_staged += pass.stats.per_rule[r].applied *
                              program->rules.rule(r).head().size();
  }
  pass.fingerprint = InstanceFingerprint(run.instance());
  if (check_model) pass.is_model = gchase::IsModelOf(run.instance(), program->rules);
  return pass;
}

uint64_t HeadChecks(const PassRecord& pass, ChaseVariant variant) {
  if (variant != ChaseVariant::kRestricted) return 0;
  uint64_t checks = 0;
  for (const gchase::RuleStats& rule : pass.stats.per_rule) {
    checks += rule.applied + rule.skipped_satisfied;
  }
  return checks;
}

/// The per-layer numbers of one pass, in the order they are reported.
std::vector<Metric> LayerMetrics(const PassRecord& pass,
                                 const MaterializeSpec& spec) {
  const ChaseStats& stats = pass.stats;
  double discover = stats.final_discovery_seconds, apply = 0, rounds_total = 0;
  double round_phases = 0;
  uint64_t candidates = 0, plan_units = 0, fallback_units = 0;
  uint64_t batched = 0, blocks = 0, skipped = 0;
  for (const gchase::RoundStats& round : stats.per_round) {
    discover += round.discovery_seconds;
    apply += round.apply_seconds;
    rounds_total += round.total_seconds;
    round_phases += round.discovery_seconds + round.apply_seconds;
    candidates += round.candidates;
    plan_units += round.plan_units;
    fallback_units += round.fallback_units;
    batched += round.batched_triggers;
    blocks += round.batch_blocks;
  }
  for (const gchase::RuleStats& rule : stats.per_rule) {
    skipped += rule.skipped_satisfied;
  }
  const uint64_t head_checks = HeadChecks(pass, spec.options.variant);
  const double leaves = pass.parse_s + pass.load_s + pass.seed_s + discover +
                        apply + (rounds_total - round_phases);
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"model.parse_s", pass.parse_s, "s"},
      {"storage.load_s", pass.load_s, "s"},
      {"storage.load_rows_per_s", Ratio(n(spec.csv_rows), pass.load_s), "1/s"},
      {"storage.seed_s", pass.seed_s, "s"},
      {"storage.seed_atoms", n(pass.seed_atoms), "count"},
      {"storage.peak_bytes", n(stats.peak_memory_bytes), "bytes"},
      {"storage.position_index_entries", n(stats.peak_position_index_entries),
       "count"},
      {"storage.dedup_keys", n(stats.peak_dedup_keys), "count"},
      {"chase.discover_s", discover, "s"},
      {"chase.hom_discoveries", n(pass.hom), "count"},
      {"chase.join_work", n(pass.join_work), "count"},
      {"chase.candidates", n(candidates), "count"},
      {"chase.dedup_kept_ratio", Ratio(n(candidates), n(pass.hom)), "ratio"},
      {"chase.plan_units", n(plan_units), "count"},
      {"chase.fallback_units", n(fallback_units), "count"},
      {"chase.parallel_rounds", n(stats.parallel_rounds), "count"},
      {"chase.apply_s", apply, "s"},
      {"chase.batched_triggers", n(batched), "count"},
      {"chase.batch_blocks", n(blocks), "count"},
      {"chase.apply_fresh_ratio",
       Ratio(n(pass.atoms - pass.seed_atoms), n(pass.head_atoms_staged)),
       "ratio"},
      {"chase.head_checks", n(head_checks), "count"},
      {"chase.head_satisfied_ratio", Ratio(n(skipped), n(head_checks)),
       "ratio"},
      {"chase.rounds", n(stats.per_round.size()), "count"},
      {"chase.round_other_s", rounds_total - round_phases, "s"},
      {"chase.unattributed_s",
       pass.execute_s - rounds_total - stats.final_discovery_seconds, "s"},
      {"chase.atoms", n(pass.atoms), "count"},
      {"chase.applied_triggers", n(pass.applied), "count"},
      // Job wall time not covered by any leaf layer above (it includes
      // chase.unattributed_s).
      {"trace.unattributed_s", pass.job_s - leaves, "s"},
  };
}

/// Layers the materialization workloads never call; reported as zero so
/// every workload prints the same metric set.
std::vector<Metric> IdleDeciderLayers() {
  std::vector<Metric> idle;
  for (const char* name :
       {"termination.critical_instance_s", "termination.detector_s",
        "termination.decider_chase_s", "termination.mfa_s",
        "termination.classify_other_s", "acyclicity.syntactic_s"}) {
    idle.push_back({name, 0.0, "s"});
  }
  for (const char* name :
       {"termination.critical_atoms", "termination.detector_calls",
        "termination.replays_attempted", "termination.per_trigger_applies",
        "termination.probe_fallbacks", "termination.cap_exhausted"}) {
    idle.push_back({name, 0.0, "count"});
  }
  return idle;
}

WorkloadResult RunMaterialize(const MaterializeSpec& spec,
                              const RunConfig& config) {
  WorkloadResult result;
  result.discovery_threads = spec.options.discovery_threads;
  FailureLog failures;
  const uint64_t expected_atoms =
      spec.expected_atoms + (config.corrupt_expectation ? 1 : 0);

  PassRecord reference;
  auto check = [&](const PassRecord& pass, bool first) {
    if (pass.outcome != ChaseOutcome::kTerminated) {
      failures.Fail(std::string("outcome ") +
                    gchase::ChaseOutcomeName(pass.outcome));
    }
    if (pass.atoms != expected_atoms) {
      failures.Fail("atoms " + std::to_string(pass.atoms) + " != expected " +
                    std::to_string(expected_atoms));
    }
    if (spec.expected_triggers != 0 && pass.applied != spec.expected_triggers) {
      failures.Fail("triggers " + std::to_string(pass.applied) +
                    " != expected " + std::to_string(spec.expected_triggers));
    }
    if (!pass.is_model) failures.Fail("IsModelOf rejects the result");
    if (first) {
      reference = pass;
    } else if (pass.fingerprint != reference.fingerprint ||
               pass.applied != reference.applied ||
               pass.hom != reference.hom ||
               pass.join_work != reference.join_work ||
               HeadChecks(pass, spec.options.variant) !=
                   HeadChecks(reference, spec.options.variant)) {
      failures.Fail("result or exact counters differ from the first pass");
    }
    ++result.attempted;
    failures.EndOperation();
  };

  // Untimed warm-up pass; it is also the one whose result IsModelOf checks
  // (the model check is outside every timed region, and the later passes
  // must reproduce its fingerprint exactly).
  check(RunPass(spec, /*check_model=*/true, &failures), true);

  HostSpeed speed(kCoreAndMemoryWork);
  speed.Measure();
  PassSchedule schedule(config);
  std::vector<double> setup, op, job, traced_job, wall_op;
  std::vector<std::vector<Metric>> layers;
  uint64_t terminated = 0;
  bool traced = false;
  while (schedule.Next(&traced)) {
    PassRecord pass = RunPass(spec, /*check_model=*/false, &failures);
    speed.Measure();
    const double scale = speed.Scale();
    check(pass, false);
    if (pass.outcome == ChaseOutcome::kTerminated) ++terminated;
    if (traced) {
      traced_job.push_back(pass.job_s * scale);
      layers.push_back(LayerMetrics(pass, spec));
      ScaleTimes(&layers.back(), scale);
    } else {
      setup.push_back(pass.setup_s * scale);
      op.push_back(pass.execute_s * scale * 1e3);
      job.push_back(pass.job_s * scale);
      wall_op.push_back(pass.execute_s * 1e3);
    }
  }
  result.failed = failures.failed_operations();
  for (const std::string& message : failures.messages()) {
    result.notes.push_back("FAILED: " + message);
  }
  result.notes.push_back("timed passes: " + std::to_string(schedule.passes()) +
                         ", atoms " + std::to_string(reference.atoms) +
                         ", triggers " + std::to_string(reference.applied));
  result.notes.push_back("wall op_p50_ms " + std::to_string(Median(wall_op)) +
                         "; " + speed.Describe());

  if (!config.trace) {
    result.notes.push_back("op_tail_ms is p" +
                           std::to_string(int(spec.tail_quantile * 100)) +
                           " of " + std::to_string(op.size()) + " samples");
    result.metrics = {
        {"setup_s", Median(setup), "s"},
        {"op_p50_ms", Median(op), "ms"},
        {"op_tail_ms", Quantile(op, spec.tail_quantile), "ms"},
        {"job_s", Median(job), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"decided_ratio", Ratio(terminated, schedule.passes()), "ratio"},
    };
    return result;
  }
  std::vector<Metric> report = MedianOverPasses(layers);
  for (Metric& idle : IdleDeciderLayers()) report.push_back(std::move(idle));
  report.push_back({"trace.overhead_ratio",
                    Median(traced_job) / Median(job) - 1.0, "ratio"});
  result.metrics = std::move(report);
  return result;
}

}  // namespace

WorkloadResult RunClosure(const RunConfig& config) {
  // Square closure of a 120-edge chain over 121 seed-named nodes: the
  // oblivious chase applies one trigger per path triple (C(121,3) =
  // 287,980) and ends with one atom per ordered pair (121*120/2 = 7,260).
  constexpr uint64_t kNodes = 121;
  const std::vector<std::string> names = NodeNames(config.seed, 1, "v", kNodes);
  MaterializeSpec spec;
  spec.rules = "e(X,Y), e(Y,Z) -> e(X,Z).\n";
  for (uint64_t i = 0; i + 1 < kNodes; ++i) {
    spec.csv += "e," + names[i] + "," + names[i + 1] + "\n";
  }
  spec.csv_rows = kNodes - 1;
  spec.options.variant = ChaseVariant::kOblivious;
  // One discovery thread: HostSpeed measures the core this thread runs on.
  spec.options.discovery_threads = 1;
  spec.expected_atoms = kNodes * (kNodes - 1) / 2;
  spec.expected_triggers = kNodes * (kNodes - 1) * (kNodes - 2) / 6;
  return RunMaterialize(spec, config);
}

WorkloadResult RunBulk(const RunConfig& config) {
  // kChains chains of kChainLength nodes. Every node but the last of its
  // chain has an out-edge; ~1/16 of those are `seed` nodes and ~7/8 of all
  // nodes carry a `label` fact, so the two existential rules find their
  // heads already satisfied for most triggers. Which nodes are seeds and
  // labeled comes from a fixed stream, so every seed yields the same
  // counts (and the same hash-table sizes); the seed names the nodes and
  // tags.
  constexpr uint64_t kChains = 512;
  constexpr uint64_t kChainLength = 160;
  constexpr uint64_t kNodes = kChains * kChainLength;
  constexpr uint64_t kStructureSeed = 2015;
  const std::vector<std::string> names = NodeNames(config.seed, 2, "n", kNodes);
  const std::vector<std::string> tags = NodeNames(config.seed, 3, "t", 64);
  SeededRng rng = StreamFor(kStructureSeed, 4);
  std::vector<bool> seeded(kNodes), labeled(kNodes);
  for (uint64_t n = 0; n < kNodes; ++n) {
    const bool last = n % kChainLength == kChainLength - 1;
    seeded[n] = !last && rng.Chance(1.0 / 16);
    labeled[n] = rng.Chance(7.0 / 8);
  }
  MaterializeSpec spec;
  uint64_t seeds = 0, labels = 0, edges = 0;
  for (uint64_t n = 0; n < kNodes; ++n) {
    if (!seeded[n]) continue;
    spec.csv += "seed," + names[n] + "\n";
    ++seeds;
  }
  for (uint64_t n = 0; n < kNodes; ++n) {
    if (!labeled[n]) continue;
    spec.csv += "label," + names[n] + "," + tags[rng.Below(tags.size())] + "\n";
    ++labels;
  }
  for (uint64_t n = 0; n < kNodes; ++n) {
    if (n % kChainLength == kChainLength - 1) continue;
    spec.csv += "edge," + names[n] + "," + names[n + 1] + "\n";
    ++edges;
  }
  spec.csv_rows = seeds + labels + edges;
  // The library's bounded fact rules, plus two existential rules.
  spec.rules =
      "edge(X,Y) -> touched(X).\n"
      "edge(X,Y) -> touched(Y).\n"
      "seed(X) -> touched(X).\n"
      "edge(X,Y), seed(X) -> reach(Y).\n"
      "reach(X) -> edge(X,Z).\n"
      "touched(X) -> label(X,L).\n";
  spec.options.variant = ChaseVariant::kRestricted;
  spec.options.discovery_threads = 1;
  // Expected model: every node is touched; every unlabeled node gets one
  // labeled-null label; reach holds for each seed's successor; a reached
  // chain end has no out-edge, so it gets edge(end, z), touched(z) and
  // label(z, l) on a fresh null z.
  uint64_t reached_ends = 0;
  for (uint64_t n = 0; n < kNodes; ++n) {
    if (seeded[n] && (n + 1) % kChainLength == kChainLength - 1) ++reached_ends;
  }
  spec.expected_atoms = spec.csv_rows + kNodes + (kNodes - labels) + seeds +
                        3 * reached_ends;
  return RunMaterialize(spec, config);
}

}  // namespace perfbench
