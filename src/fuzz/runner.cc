#include "fuzz/runner.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "base/timer.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/progress.h"

namespace gchase {

namespace {

/// Deterministic repro filename: replaying the recorded (seed, trial)
/// regenerates the unshrunken case, so the name is the provenance.
std::string ReproFileName(OracleId oracle, uint64_t seed, uint64_t trial) {
  return std::string(OracleName(oracle)) + "_s" + std::to_string(seed) +
         "_t" + std::to_string(trial) + ".dlgp";
}

/// Writes the repro file; returns its path or "" on failure (a full disk
/// must not kill the campaign — the violation is still reported).
std::string WriteReproFile(const std::string& corpus_dir,
                           const FuzzCase& fuzz_case) {
  const std::string path =
      corpus_dir + "/" +
      ReproFileName(*OracleByName(fuzz_case.oracle), fuzz_case.seed,
                    fuzz_case.trial);
  std::ofstream out(path);
  if (!out) return "";
  out << WriteRepro(fuzz_case);
  out.close();
  return out ? path : "";
}

}  // namespace

FuzzReport RunFuzz(const FuzzRunnerOptions& options) {
  WallTimer timer;
  FuzzReport report;
  report.per_oracle.resize(kNumOracles);

  std::vector<OracleId> oracles =
      options.oracles.empty() ? AllOracles() : options.oracles;

  for (uint64_t trial = 0; trial < options.trials; ++trial) {
    if (options.total_deadline.Expired() || options.cancel.Cancelled()) {
      report.stopped_early = true;
      break;
    }
    PhaseScope trial_scope(Phase::kFuzzTrial, trial);
    ++report.trials_started;
    if (ProgressEnabled()) {
      GlobalProgress().trials_started.fetch_add(1, std::memory_order_relaxed);
    }
    FuzzCase fuzz_case =
        MakeFuzzCase(options.seed, trial, options.case_options);
    if (options.verbose) {
      std::fprintf(stderr, "fuzz: trial %llu profile=%s rules=%u facts=%zu\n",
                   static_cast<unsigned long long>(trial),
                   fuzz_case.profile.c_str(), fuzz_case.rules.size(),
                   fuzz_case.database.size());
    }

    bool budget_died = false;
    for (OracleId oracle : oracles) {
      OracleOptions oracle_options = options.oracle_options;
      oracle_options.deadline =
          Deadline::Earlier(Deadline::AfterMillis(options.trial_deadline_ms),
                            options.total_deadline);
      oracle_options.cancel = options.cancel;
      OracleResult result;
      {
        PhaseScope oracle_scope(Phase::kFuzzOracle,
                                static_cast<uint64_t>(oracle));
        result = RunOracle(oracle, fuzz_case, oracle_options);
      }
      if (result.outcome == OracleOutcome::kInconclusive &&
          (options.cancel.Cancelled() || options.total_deadline.Expired())) {
        // The campaign budget died under this evaluation (Ctrl-C or total
        // deadline), so the verdict says nothing about the case. Leave
        // the tallies untouched — an "inconclusive" here would pollute
        // the per-oracle counters of an otherwise clean partial report.
        budget_died = true;
        break;
      }

      OracleCounters& counters =
          report.per_oracle[static_cast<uint32_t>(oracle)];
      ++counters.trials;
      switch (result.outcome) {
        case OracleOutcome::kPass:
          ++counters.passes;
          continue;
        case OracleOutcome::kInconclusive:
          ++counters.inconclusive;
          continue;
        case OracleOutcome::kViolation:
          ++counters.violations;
          break;
      }

      FuzzViolation violation;
      violation.oracle = oracle;
      violation.seed = options.seed;
      violation.trial = trial;
      violation.detail = result.detail;
      violation.shrunk = fuzz_case;
      violation.shrunk.oracle = OracleName(oracle);
      if (options.shrink) {
        // The predicate re-evaluates the same oracle with a fresh copy
        // of the per-trial budget, so every candidate gets equal
        // treatment and the minimized case still violates under the
        // budgets a replay will use.
        PhaseScope shrink_scope(Phase::kFuzzShrink, trial);
        ShrinkOptions shrink_options = options.shrink_options;
        shrink_options.deadline = Deadline::Earlier(
            Deadline::AfterMillis(8 * options.trial_deadline_ms),
            options.total_deadline);
        ShrinkResult shrunk = ShrinkCase(
            violation.shrunk,
            [&](const FuzzCase& candidate) {
              OracleOptions replay = options.oracle_options;
              replay.deadline =
                  Deadline::AfterMillis(options.trial_deadline_ms);
              replay.cancel = options.cancel;
              return RunOracle(oracle, candidate, replay).outcome ==
                     OracleOutcome::kViolation;
            },
            shrink_options);
        violation.shrunk = std::move(shrunk.minimized);
      }
      if (!options.corpus_dir.empty()) {
        violation.repro_path =
            WriteReproFile(options.corpus_dir, violation.shrunk);
      }
      if (options.verbose) {
        std::fprintf(stderr, "fuzz: VIOLATION %s trial %llu: %s\n",
                     OracleName(oracle),
                     static_cast<unsigned long long>(trial),
                     violation.detail.c_str());
      }
      report.violations.push_back(std::move(violation));
      if (ProgressEnabled()) {
        GlobalProgress().trials_failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (budget_died) {
      report.stopped_early = true;
      break;
    }
    ++report.trials_run;
    if (ProgressEnabled()) {
      GlobalProgress().trials_run.fetch_add(1, std::memory_order_relaxed);
    }
  }

  report.elapsed_seconds = timer.ElapsedSeconds();
  return report;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        // Drop raw control characters; everything else (including UTF-8
        // continuation bytes) passes through.
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
        break;
    }
  }
  return out;
}

}  // namespace

std::string FuzzReportToJson(const FuzzRunnerOptions& options,
                             const FuzzReport& report) {
  char buffer[64];
  std::string out = "{\n";
  out += "  \"experiment\": \"chase_fuzz differential oracle campaign\",\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += "  \"trials_requested\": " + std::to_string(options.trials) + ",\n";
  out += "  \"trials_run\": " + std::to_string(report.trials_run) + ",\n";
  out +=
      "  \"trials_started\": " + std::to_string(report.trials_started) + ",\n";
  out += std::string("  \"stopped_early\": ") +
         (report.stopped_early ? "true" : "false") + ",\n";
  std::snprintf(buffer, sizeof(buffer), "%.3f", report.elapsed_seconds);
  out += std::string("  \"elapsed_seconds\": ") + buffer + ",\n";
  out += "  \"oracles\": [\n";
  bool first = true;
  for (uint32_t i = 0; i < report.per_oracle.size(); ++i) {
    const OracleCounters& counters = report.per_oracle[i];
    if (counters.trials == 0) continue;
    if (!first) out += ",\n";
    first = false;
    out += "    {\"oracle\": \"";
    out += OracleName(static_cast<OracleId>(i));
    out += "\", \"trials\": " + std::to_string(counters.trials);
    out += ", \"passes\": " + std::to_string(counters.passes);
    out += ", \"violations\": " + std::to_string(counters.violations);
    out += ", \"inconclusive\": " + std::to_string(counters.inconclusive);
    out += "}";
  }
  out += "\n  ],\n";
  out += "  \"violations\": [\n";
  for (std::size_t i = 0; i < report.violations.size(); ++i) {
    const FuzzViolation& violation = report.violations[i];
    if (i > 0) out += ",\n";
    out += "    {\"oracle\": \"";
    out += OracleName(violation.oracle);
    out += "\", \"seed\": " + std::to_string(violation.seed);
    out += ", \"trial\": " + std::to_string(violation.trial);
    out += ", \"detail\": \"" + JsonEscape(violation.detail) + "\"";
    out += ", \"repro\": \"" + JsonEscape(violation.repro_path) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void PublishFuzzMetrics(const FuzzReport& report, MetricsRegistry* registry) {
  MetricsRegistry& sink =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  sink.Counter("fuzz.trials_run")->Add(report.trials_run);
  sink.Counter("fuzz.trials_started")->Add(report.trials_started);
  sink.Counter("fuzz.violations")->Add(report.violations.size());
  sink.Gauge("fuzz.stopped_early")->Set(report.stopped_early ? 1 : 0);
  for (uint32_t i = 0; i < report.per_oracle.size(); ++i) {
    const OracleCounters& counters = report.per_oracle[i];
    if (counters.trials == 0) continue;
    const std::string prefix =
        std::string("fuzz.oracle.") + OracleName(static_cast<OracleId>(i));
    sink.Counter(prefix + ".trials")->Add(counters.trials);
    sink.Counter(prefix + ".passes")->Add(counters.passes);
    sink.Counter(prefix + ".violations")->Add(counters.violations);
    sink.Counter(prefix + ".inconclusive")->Add(counters.inconclusive);
  }
}

}  // namespace gchase
