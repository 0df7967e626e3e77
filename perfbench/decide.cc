// The decide-corpus workload: ParseProgram every rule set of a seeded
// corpus (set-up), then ClassifyTermination each one (the operations).
//
// The traced run replaces each ClassifyTermination call by a replica
// wired from the library's public pieces (Check*Acyclicity,
// CheckModelFaithfulAcyclicity, BuildCriticalInstance, ChaseRun +
// PumpDetector::OnAtom, the exact-then-probe cascade), timing every call.
// The replica must reproduce what the library's own ClassifyTermination
// reported for the set in the untimed warm-up pass: every verdict,
// acyclicity flag and decider atom count.
#include <algorithm>
#include <optional>

#include "acyclicity/dependency_graph.h"
#include "acyclicity/joint_acyclicity.h"
#include "acyclicity/stickiness.h"
#include "bench.h"
#include "model/parser.h"
#include "termination/classifier.h"
#include "termination/critical_instance.h"
#include "termination/decider.h"
#include "termination/mfa.h"
#include "termination/pump_detector.h"

namespace perfbench {
namespace {

using gchase::ChaseVariant;
using gchase::TerminationVerdict;

constexpr uint32_t kRandomSets = 1000;
constexpr uint32_t kLtreeMin = 10, kLtreeMax = 14;
/// Join-work cap of each decider chase: the smallest power of two above
/// ltree(14)'s join work (130,798). At the library default (2^28) a rare
/// guarded set runs for seconds before it gives up; at this cap it gives
/// up (and stays `unknown`) within about a tenth of a second.
constexpr uint64_t kCorpusJoinWork = uint64_t{1} << 18;

/// op_tail_ms percentile. Each pass repeats the same ~1,030 sets, so
/// about 20 distinct sets lie beyond p98. Beyond p99 lie only ~10, and
/// the p99 set then sits next to the seven capped and ltree sets, where
/// its latency jumps with the rule order a seed picks.
constexpr double kTailQuantile = 0.98;

/// Length of the stretches a decide pass is timed in (see HostSpeed).
constexpr double kStretchSeconds = 0.2;

enum class SetKind { kRandom, kCurated, kLtree };

struct CorpusSet {
  std::string name;
  std::string program;
  SetKind kind = SetKind::kRandom;
  bool oblivious_terminates = false;  ///< Ground truth (curated sets).
  bool semi_oblivious_terminates = false;
};

/// What one classification reported, in the terms the checks use.
struct Verdicts {
  bool ok = false;
  gchase::RuleClass rule_class = gchase::RuleClass::kGeneral;
  bool wa = false, ra = false, ja = false, sticky = false, mfa = false;
  TerminationVerdict o = TerminationVerdict::kUnknown;
  TerminationVerdict so = TerminationVerdict::kUnknown;
  /// Decider chase sizes (0 when the verdict was syntactic).
  uint64_t o_atoms = 0, so_atoms = 0;

  bool SameAs(const Verdicts& other) const {
    return ok == other.ok && rule_class == other.rule_class && wa == other.wa &&
           ra == other.ra && ja == other.ja && sticky == other.sticky &&
           mfa == other.mfa && o == other.o && so == other.so &&
           o_atoms == other.o_atoms && so_atoms == other.so_atoms;
  }
};

std::vector<CorpusSet> BuildCorpus(const RunConfig& config,
                                   const std::string& curated_path) {
  std::vector<CorpusSet> corpus;
  const std::vector<RandomSetText> random = RandomRuleSets(config.seed, kRandomSets);
  for (const RandomSetText& set : random) {
    corpus.push_back({"random-" + set.requested_class + "-" +
                          std::to_string(set.index),
                      set.program, SetKind::kRandom});
  }
  for (CuratedSet& set : LoadCuratedSets(curated_path)) {
    corpus.push_back({set.name, std::move(set.program), SetKind::kCurated,
                      set.oblivious_terminates, set.semi_oblivious_terminates});
  }
  if (config.corrupt_expectation) {
    for (CorpusSet& set : corpus) {
      if (set.kind != SetKind::kCurated) continue;
      set.oblivious_terminates = !set.oblivious_terminates;
      break;
    }
  }
  for (uint32_t k = kLtreeMin; k <= kLtreeMax; ++k) {
    corpus.push_back({"ltree-" + std::to_string(k), LtreeProgram(k),
                      SetKind::kLtree});
  }
  return corpus;
}

gchase::ClassifierOptions CorpusOptions() {
  gchase::ClassifierOptions options;  // Defaults: fallback probe on.
  options.decider.max_join_work = kCorpusJoinWork;
  return options;
}

/// The library's ClassifyTermination, reduced to what the checks use.
Verdicts Classify(gchase::ParsedProgram* program,
                  const gchase::ClassifierOptions& options) {
  gchase::StatusOr<gchase::ClassifierReport> result =
      gchase::ClassifyTermination(program->rules, &program->vocabulary,
                                  options);
  Verdicts v;
  if (!result.ok()) return v;
  const gchase::ClassifierReport& report = *result;
  v.ok = true;
  v.rule_class = report.rule_class;
  v.wa = report.weakly_acyclic;
  v.ra = report.richly_acyclic;
  v.ja = report.jointly_acyclic;
  v.sticky = report.sticky;
  v.mfa = report.mfa;
  v.o = report.oblivious.verdict;
  v.so = report.semi_oblivious.verdict;
  if (report.oblivious.decider) v.o_atoms = report.oblivious.decider->chase_atoms;
  if (report.semi_oblivious.decider) {
    v.so_atoms = report.semi_oblivious.decider->chase_atoms;
  }
  return v;
}

/// The workload's correctness checks for one classified set.
void CheckVerdicts(const CorpusSet& set, const Verdicts& v, FailureLog* failures) {
  using V = TerminationVerdict;
  if (!v.ok) {
    failures->Fail(set.name + ": classification failed");
    return;
  }
  auto contradicts = [](V verdict, bool terminates) {
    return verdict != V::kUnknown &&
           (verdict == V::kTerminating) != terminates;
  };
  switch (set.kind) {
    case SetKind::kCurated:
      if (contradicts(v.o, set.oblivious_terminates) ||
          contradicts(v.so, set.semi_oblivious_terminates)) {
        failures->Fail(set.name + ": verdict contradicts ground truth");
      }
      break;
    case SetKind::kLtree:
      if (v.o != V::kTerminating || v.so != V::kTerminating) {
        failures->Fail(set.name + ": not decided terminating");
      }
      break;
    case SetKind::kRandom:
      if ((v.ra && v.o == V::kNonTerminating) ||
          (v.wa && v.so == V::kNonTerminating) ||
          (v.o == V::kTerminating && v.so == V::kNonTerminating)) {
        failures->Fail(set.name + ": soundness implication broken");
      }
      break;
  }
}

/// Per-layer totals of one traced corpus pass.
struct LayerTotals {
  double parse_s = 0, seed_s = 0, critical_s = 0, detector_s = 0;
  double decider_chase_s = 0, mfa_s = 0, classify_other_s = 0;
  double syntactic_s = 0, discover_s = 0, apply_s = 0, round_other_s = 0;
  double chase_unattributed_s = 0;
  uint64_t seed_atoms = 0, peak_bytes = 0, index_entries = 0, dedup_keys = 0;
  uint64_t hom = 0, join_work = 0, candidates = 0, plan_units = 0;
  uint64_t fallback_units = 0, parallel_rounds = 0, batched = 0, blocks = 0;
  uint64_t rounds = 0, atoms = 0, applied = 0, head_atoms_staged = 0;
  uint64_t detector_calls = 0, replays = 0, probe_fallbacks = 0;
  uint64_t cap_exhausted = 0;
};

struct DeciderOutcome {
  TerminationVerdict verdict = TerminationVerdict::kUnknown;
  gchase::StopReason reason = gchase::StopReason::kNone;
  uint64_t chase_atoms = 0;
};

/// DecideTermination, rebuilt from its public pieces with a timer around
/// each call.
DeciderOutcome TracedDecide(const gchase::RuleSet& rules,
                            gchase::Vocabulary* vocabulary, ChaseVariant variant,
                            const gchase::DeciderOptions& options,
                            LayerTotals* totals) {
  Stopwatch clock;
  gchase::CriticalInstanceOptions critical;
  critical.standard_database = options.standard_database;
  critical.excluded_constants = options.excluded_constants;
  const std::vector<gchase::Atom> database =
      gchase::BuildCriticalInstance(rules, vocabulary, critical);
  totals->critical_s += clock.Seconds();

  gchase::ChaseOptions chase;
  chase.variant = variant;
  chase.max_atoms = options.max_atoms;
  chase.max_steps = options.max_steps;
  chase.max_hom_discoveries = options.max_hom_discoveries;
  chase.max_join_work = options.max_join_work;
  chase.discovery_threads = options.discovery_threads;
  chase.max_memory_bytes = options.max_memory_bytes;
  chase.track_provenance = true;
  clock = Stopwatch();
  gchase::ChaseRun run(rules, chase, database);
  totals->seed_s += clock.Seconds();
  totals->seed_atoms += run.instance().size();
  gchase::PumpDetector detector(run, options.pump);

  double detector_s = 0;
  bool pumped = false;
  clock = Stopwatch();
  const gchase::ChaseOutcome outcome = run.Execute([&](gchase::AtomId atom) {
    const double start = NowSeconds();
    pumped = detector.OnAtom(atom).has_value();
    detector_s += NowSeconds() - start;
    ++totals->detector_calls;
    return !pumped;
  });
  const double execute_s = clock.Seconds();
  totals->detector_s += detector_s;
  totals->decider_chase_s += execute_s - detector_s;
  totals->replays += detector.replays_attempted();

  const gchase::ChaseStats& stats = run.stats();
  double rounds_total = 0;
  totals->discover_s += stats.final_discovery_seconds;
  for (const gchase::RoundStats& round : stats.per_round) {
    totals->discover_s += round.discovery_seconds;
    totals->apply_s += round.apply_seconds;
    totals->round_other_s +=
        round.total_seconds - round.discovery_seconds - round.apply_seconds;
    rounds_total += round.total_seconds;
    totals->candidates += round.candidates;
    totals->plan_units += round.plan_units;
    totals->fallback_units += round.fallback_units;
    totals->batched += round.batched_triggers;
    totals->blocks += round.batch_blocks;
  }
  totals->chase_unattributed_s +=
      execute_s - rounds_total - stats.final_discovery_seconds;
  totals->rounds += stats.per_round.size();
  totals->parallel_rounds += stats.parallel_rounds;
  totals->peak_bytes = std::max(totals->peak_bytes, stats.peak_memory_bytes);
  totals->index_entries =
      std::max(totals->index_entries, stats.peak_position_index_entries);
  totals->dedup_keys = std::max(totals->dedup_keys, stats.peak_dedup_keys);
  totals->hom += run.hom_discoveries();
  totals->join_work += run.join_work();
  totals->atoms += run.instance().size();
  totals->applied += run.applied_triggers();
  for (uint32_t r = 0; r < rules.size(); ++r) {
    totals->head_atoms_staged +=
        stats.per_rule[r].applied * rules.rule(r).head().size();
  }

  DeciderOutcome result;
  result.chase_atoms = run.instance().size();
  if (outcome == gchase::ChaseOutcome::kTerminated) {
    result.verdict = TerminationVerdict::kTerminating;
  } else if (outcome == gchase::ChaseOutcome::kAborted && pumped) {
    result.verdict = TerminationVerdict::kNonTerminating;
  } else {
    result.reason = gchase::StopReasonOf(outcome);
    if (result.reason == gchase::StopReason::kResourceCap) ++totals->cap_exhausted;
  }
  return result;
}

/// DecideTerminationWithFallback: the exact run, then on a cap the
/// bounded probe with the library's probe caps.
DeciderOutcome TracedDecideWithFallback(const gchase::RuleSet& rules,
                                        gchase::Vocabulary* vocabulary,
                                        ChaseVariant variant,
                                        const gchase::DeciderOptions& options,
                                        LayerTotals* totals) {
  DeciderOutcome exact = TracedDecide(rules, vocabulary, variant, options, totals);
  if (exact.verdict != TerminationVerdict::kUnknown ||
      exact.reason == gchase::StopReason::kCancelled) {
    return exact;
  }
  ++totals->probe_fallbacks;
  gchase::DeciderOptions probe = options;
  probe.max_atoms = std::min<uint64_t>(options.max_atoms, 1u << 14);
  probe.max_steps = std::min<uint64_t>(options.max_steps, 1u << 16);
  probe.max_hom_discoveries =
      std::min<uint64_t>(options.max_hom_discoveries, 1ull << 20);
  probe.max_join_work = std::min<uint64_t>(options.max_join_work, 1ull << 24);
  return TracedDecide(rules, vocabulary, variant, probe, totals);
}

/// ClassifyTermination, rebuilt from its public pieces.
Verdicts TracedClassify(gchase::ParsedProgram* program,
                        const gchase::ClassifierOptions& options,
                        LayerTotals* totals) {
  const Stopwatch total;
  double children = 0;
  Verdicts v;
  v.ok = true;
  const gchase::RuleSet& rules = program->rules;
  gchase::Vocabulary* vocabulary = &program->vocabulary;
  v.rule_class = rules.Classify();

  Stopwatch clock;
  const gchase::Schema& schema = vocabulary->schema;
  v.wa = gchase::CheckWeakAcyclicity(rules, schema).acyclic;
  v.ra = gchase::CheckRichAcyclicity(rules, schema).acyclic;
  v.ja = gchase::CheckJointAcyclicity(rules, schema).acyclic;
  v.sticky = gchase::CheckStickiness(rules, schema).sticky;
  const double syntactic = clock.Seconds();
  totals->syntactic_s += syntactic;
  children += syntactic;

  clock = Stopwatch();
  gchase::StatusOr<gchase::MfaResult> mfa =
      gchase::CheckModelFaithfulAcyclicity(rules, vocabulary, {});
  const double mfa_s = clock.Seconds();
  totals->mfa_s += mfa_s;
  children += mfa_s;
  v.mfa = mfa.ok() && mfa->status == gchase::MfaStatus::kAcyclic;

  const bool syntactic_only = v.rule_class == gchase::RuleClass::kSimpleLinear &&
                              !options.force_decider;
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    const bool oblivious = variant == ChaseVariant::kOblivious;
    TerminationVerdict& verdict = oblivious ? v.o : v.so;
    if (syntactic_only) {
      verdict = (oblivious ? v.ra : v.wa) ? TerminationVerdict::kTerminating
                                          : TerminationVerdict::kNonTerminating;
      continue;
    }
    const double before = totals->critical_s + totals->seed_s +
                          totals->detector_s + totals->decider_chase_s;
    const DeciderOutcome outcome =
        options.fallback_probe
            ? TracedDecideWithFallback(rules, vocabulary, variant,
                                       options.decider, totals)
            : TracedDecide(rules, vocabulary, variant, options.decider, totals);
    children += totals->critical_s + totals->seed_s + totals->detector_s +
                totals->decider_chase_s - before;
    verdict = outcome.verdict;
    (oblivious ? v.o_atoms : v.so_atoms) = outcome.chase_atoms;
  }
  totals->classify_other_s += total.Seconds() - children;
  return v;
}

std::vector<Metric> LayerMetrics(const LayerTotals& t, double pass_s) {
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  const double leaves = t.parse_s + t.syntactic_s + t.mfa_s + t.critical_s +
                        t.seed_s + t.detector_s + t.decider_chase_s +
                        t.classify_other_s;
  return {
      {"model.parse_s", t.parse_s, "s"},
      {"storage.load_s", 0.0, "s"},
      {"storage.load_rows_per_s", 0.0, "1/s"},
      {"storage.seed_s", t.seed_s, "s"},
      {"storage.seed_atoms", n(t.seed_atoms), "count"},
      {"storage.peak_bytes", n(t.peak_bytes), "bytes"},
      {"storage.position_index_entries", n(t.index_entries), "count"},
      {"storage.dedup_keys", n(t.dedup_keys), "count"},
      {"chase.discover_s", t.discover_s, "s"},
      {"chase.hom_discoveries", n(t.hom), "count"},
      {"chase.join_work", n(t.join_work), "count"},
      {"chase.candidates", n(t.candidates), "count"},
      {"chase.dedup_kept_ratio", Ratio(n(t.candidates), n(t.hom)), "ratio"},
      {"chase.plan_units", n(t.plan_units), "count"},
      {"chase.fallback_units", n(t.fallback_units), "count"},
      {"chase.parallel_rounds", n(t.parallel_rounds), "count"},
      {"chase.apply_s", t.apply_s, "s"},
      {"chase.batched_triggers", n(t.batched), "count"},
      {"chase.batch_blocks", n(t.blocks), "count"},
      {"chase.apply_fresh_ratio",
       Ratio(n(t.atoms - t.seed_atoms), n(t.head_atoms_staged)), "ratio"},
      {"chase.head_checks", 0.0, "count"},
      {"chase.head_satisfied_ratio", 0.0, "ratio"},
      {"chase.rounds", n(t.rounds), "count"},
      {"chase.round_other_s", t.round_other_s, "s"},
      {"chase.unattributed_s", t.chase_unattributed_s, "s"},
      {"chase.atoms", n(t.atoms), "count"},
      {"chase.applied_triggers", n(t.applied), "count"},
      {"trace.unattributed_s", pass_s - leaves, "s"},
      {"termination.critical_instance_s", t.critical_s, "s"},
      {"termination.critical_atoms", n(t.seed_atoms), "count"},
      {"termination.detector_s", t.detector_s, "s"},
      {"termination.detector_calls", n(t.detector_calls), "count"},
      {"termination.replays_attempted", n(t.replays), "count"},
      {"termination.decider_chase_s", t.decider_chase_s, "s"},
      {"termination.per_trigger_applies", n(t.applied - t.batched), "count"},
      {"termination.mfa_s", t.mfa_s, "s"},
      {"termination.probe_fallbacks", n(t.probe_fallbacks), "count"},
      {"termination.cap_exhausted", n(t.cap_exhausted), "count"},
      {"termination.classify_other_s", t.classify_other_s, "s"},
      {"acyclicity.syntactic_s", t.syntactic_s, "s"},
  };
}

/// Parses every set of the corpus (the workload's set-up).
std::vector<std::optional<gchase::ParsedProgram>> ParseCorpus(
    const std::vector<CorpusSet>& corpus, FailureLog* failures,
    double* parse_s) {
  std::vector<std::optional<gchase::ParsedProgram>> programs(corpus.size());
  const Stopwatch clock;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    gchase::StatusOr<gchase::ParsedProgram> parsed =
        gchase::ParseProgram(corpus[i].program);
    if (parsed.ok()) {
      programs[i] = *std::move(parsed);
    } else {
      failures->Fail(corpus[i].name + ": " + parsed.status().ToString());
    }
  }
  *parse_s = clock.Seconds();
  return programs;
}

}  // namespace

WorkloadResult RunDecideCorpus(const RunConfig& config) {
  const std::vector<CorpusSet> corpus =
      BuildCorpus(config, config.source_dir + "/curated.dlgp");
  const gchase::ClassifierOptions options = CorpusOptions();
  WorkloadResult result;
  result.discovery_threads = options.decider.discovery_threads;
  FailureLog failures;

  // Warm-up pass (untimed): its verdicts are the reference every later
  // pass must reproduce, and give the decided ratio.
  std::vector<Verdicts> reference(corpus.size());
  uint64_t analyses = 0, decided = 0;
  std::vector<std::pair<double, std::size_t>> slowest;
  {
    double parse_s = 0;
    auto programs = ParseCorpus(corpus, &failures, &parse_s);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Stopwatch op;
      if (programs[i]) reference[i] = Classify(&*programs[i], options);
      slowest.push_back({op.Seconds(), i});
      CheckVerdicts(corpus[i], reference[i], &failures);
      ++result.attempted;
      failures.EndOperation();
      analyses += 2;
      decided += (reference[i].o != TerminationVerdict::kUnknown) +
                 (reference[i].so != TerminationVerdict::kUnknown);
    }
  }

  // The warm-up's slowest sets, to show where the corpus time goes.
  std::sort(slowest.rbegin(), slowest.rend());
  slowest.resize(std::min<std::size_t>(slowest.size(), 8));
  for (const auto& [seconds, i] : slowest) {
    result.notes.push_back(
        "slow set " + corpus[i].name + ": " + std::to_string(seconds * 1e3) +
        " ms, o=" + gchase::TerminationVerdictName(reference[i].o) +
        " so=" + gchase::TerminationVerdictName(reference[i].so));
  }

  HostSpeed speed(kCoreWork);
  speed.Measure();
  PassSchedule schedule(config);
  std::vector<double> setup, op_ms, job, traced_job, wall_job;
  std::vector<std::vector<Metric>> layers;
  bool traced = false;
  while (schedule.Next(&traced)) {
    // A pass takes over a second, so it is timed in stretches of about
    // kStretchSeconds with a reference measurement after each, and each
    // stretch's times are scaled by the reference around it.
    Stopwatch stretch;
    double parse_s = 0;
    auto programs = ParseCorpus(corpus, &failures, &parse_s);
    double scaled_parse_s = -1, pass_s = 0, scaled_pass_s = 0;
    std::vector<double> open_ops, pass_ops;
    auto close_stretch = [&] {
      const double seconds = stretch.Seconds();
      speed.Measure();
      const double scale = speed.Scale();
      if (scaled_parse_s < 0) scaled_parse_s = parse_s * scale;
      pass_s += seconds;
      scaled_pass_s += seconds * scale;
      for (double ms : open_ops) pass_ops.push_back(ms * scale);
      open_ops.clear();
      stretch = Stopwatch();
    };
    std::vector<Verdicts> verdicts(corpus.size());
    LayerTotals totals;
    totals.parse_s = parse_s;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (!programs[i]) continue;
      const Stopwatch op;
      verdicts[i] = traced ? TracedClassify(&*programs[i], options, &totals)
                           : Classify(&*programs[i], options);
      open_ops.push_back(op.Seconds() * 1e3);
      if (stretch.Seconds() >= kStretchSeconds) close_stretch();
    }
    if (scaled_parse_s < 0 || !open_ops.empty()) close_stretch();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      CheckVerdicts(corpus[i], verdicts[i], &failures);
      if (!verdicts[i].SameAs(reference[i])) {
        failures.Fail(corpus[i].name + (traced ? ": traced replica differs"
                                               : ": verdicts not deterministic"));
      }
      ++result.attempted;
      failures.EndOperation();
    }
    if (traced) {
      traced_job.push_back(scaled_pass_s);
      layers.push_back(LayerMetrics(totals, pass_s));
      ScaleTimes(&layers.back(), scaled_pass_s / pass_s);
    } else {
      setup.push_back(scaled_parse_s);
      op_ms.insert(op_ms.end(), pass_ops.begin(), pass_ops.end());
      job.push_back(scaled_pass_s);
      wall_job.push_back(pass_s);
    }
  }
  result.failed = failures.failed_operations();
  for (const std::string& message : failures.messages()) {
    result.notes.push_back("FAILED: " + message);
  }
  result.notes.push_back("corpus: " + std::to_string(corpus.size()) +
                         " sets; timed passes: " + std::to_string(schedule.passes()) +
                         "; decided " + std::to_string(decided) + "/" +
                         std::to_string(analyses));
  result.notes.push_back("wall job_s " + std::to_string(Median(wall_job)) +
                         "; " + speed.Describe());

  if (!config.trace) {
    result.notes.push_back("op_tail_ms is p98 of " +
                           std::to_string(op_ms.size()) + " samples");
    result.metrics = {
        {"setup_s", Median(setup), "s"},
        {"op_p50_ms", Median(op_ms), "ms"},
        {"op_tail_ms", Quantile(op_ms, kTailQuantile), "ms"},
        {"job_s", Median(job), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"decided_ratio", Ratio(decided, analyses), "ratio"},
    };
    return result;
  }
  std::vector<Metric> report = MedianOverPasses(layers);
  report.push_back({"trace.overhead_ratio",
                    Median(traced_job) / Median(job) - 1.0, "ratio"});
  result.metrics = std::move(report);
  return result;
}

}  // namespace perfbench
