// Shared pieces of the gchase benchmark: the run configuration, the
// seeded input generators, sample statistics and the metric report.
//
// The benchmark drives the library only through its public entry points
// (ParseProgram, LoadCsvFacts, the ChaseRun constructors and Execute,
// ClassifyTermination, BuildCriticalInstance, PumpDetector::OnAtom,
// CheckModelFaithfulAcyclicity and the Check*Acyclicity functions). Every
// input is generated here from the --seed argument and handed to the
// library as rule text or CSV.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line configuration of one benchmark process.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberately corrupts one expected value, so a run must report a
  /// failed operation: proves that the correctness checks count.
  bool corrupt_expectation = false;
  /// Identifies the library source the benchmark was built from.
  std::string source_id = "unknown";
  /// The benchmark's own directory (holds curated.dlgp).
  std::string source_dir = ".";
};

/// SplitMix64 stream; the only randomness source of the benchmark.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// True with probability `p`.
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream for one input family of one seed.
inline SeededRng StreamFor(uint64_t seed, uint64_t family) {
  SeededRng mix(seed ^ (family * 0xd1b54a32d192ed03ull));
  return SeededRng(mix.Next());
}

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Steady-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(NowSeconds()) {}
  double Seconds() const { return NowSeconds() - start_; }

 private:
  double start_;
};

/// A reference computation and its typical time on a 4-vCPU Xeon (model
/// 207). Every reference does a fixed amount of arithmetic and a sort,
/// which track the core's speed; `walk_bytes` > 0 adds dependent loads
/// along one random cycle through that much memory, which track the
/// memory's speed.
struct ReferenceWork {
  uint32_t walk_bytes;
  double seconds;
};
/// For workloads whose passes build instances of tens of MiB: the walk
/// goes through 8 MiB, beyond one core's L2.
inline constexpr ReferenceWork kCoreAndMemoryWork{8u << 20, 0.040};
/// For workloads of small operations that stay in the caches.
inline constexpr ReferenceWork kCoreWork{0, 0.012};

/// Cancels the host's speed drift out of reported times. On a shared host
/// the same pass runs up to 1.5 times as slow for minutes at a time; a
/// fixed reference computation timed between passes slows down with it.
/// Each pass's times are scaled by the reference's typical time over the
/// mean of the reference times measured just before and just after the
/// pass, so a reported second is a second of wall time on a host where the
/// reference takes its typical time.
class HostSpeed {
 public:
  /// Allocates the reference's memory (untimed). It is never freed, so the
  /// allocator's state stays the same from pass to pass.
  explicit HostSpeed(const ReferenceWork& work);
  /// Times the reference once: before the first timed pass and after each.
  void Measure();
  /// Scale for the pass that ended at the last Measure().
  double Scale() const;
  /// The reference's typical and median measured time, for the log.
  std::string Describe() const;

 private:
  ReferenceWork work_;
  std::vector<uint64_t> values_;
  std::vector<uint32_t> cycle_;
  std::vector<double> measured_s_;
};

/// Decides how many timed passes a run makes and which are traced. A run
/// measures for `config.seconds`; a traced run spends its first third on
/// untraced passes, so it can report its own overhead against them. Every
/// run makes at least one untraced pass, and a traced run at least one
/// traced pass.
class PassSchedule {
 public:
  explicit PassSchedule(const RunConfig& config) : config_(config) {}
  /// True if another pass should run; *traced says whether it is traced.
  bool Next(bool* traced) {
    const double elapsed = clock_.Seconds();
    *traced = config_.trace && untraced_ > 0 &&
              elapsed >= config_.seconds / 3;
    if (elapsed >= config_.seconds && untraced_ > 0 &&
        (traced_ > 0 || !config_.trace)) {
      return false;
    }
    ++(*traced ? traced_ : untraced_);
    return true;
  }
  uint64_t passes() const { return untraced_ + traced_; }

 private:
  const RunConfig& config_;
  Stopwatch clock_;
  uint64_t untraced_ = 0, traced_ = 0;
};

/// Nearest-rank quantile of `values` (0 < q <= 1); 0 for no values.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// numerator / denominator, or 0 when the denominator is 0.
inline double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Multiplies every time (unit "s") by `scale` and divides every rate
/// (unit "1/s") by it.
void ScaleTimes(std::vector<Metric>* metrics, double scale);

/// Folds the per-pass layer metrics of a traced run into one report:
/// every timing (unit "s" or "1/s") becomes its median over the passes,
/// every count keeps the last pass's value (counts are checked to be the
/// same every pass).
std::vector<Metric> MedianOverPasses(
    const std::vector<std::vector<Metric>>& passes);

/// What a workload hands back to main(): the operation tallies, the
/// metrics of the requested mode, and human-readable notes.
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// ChaseOptions::discovery_threads of the workload's chase runs.
  uint32_t discovery_threads = 1;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
};

/// Records a failed check: bumps the failure count once per operation
/// and keeps the first few messages for the log.
class FailureLog {
 public:
  void Fail(const std::string& what);
  /// Closes one operation, counting it once if any check of it failed.
  void EndOperation();
  uint64_t failed_operations() const { return failed_operations_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  bool current_failed_ = false;
  uint64_t failed_operations_ = 0;
  std::vector<std::string> messages_;
};

// ---- Seeded inputs -------------------------------------------------------

/// Distinct, seed-permuted constant names "<prefix><hex>" for `count`
/// nodes.
std::vector<std::string> NodeNames(uint64_t seed, uint64_t family,
                                   const std::string& prefix, uint64_t count);

/// A curated rule set with hand-verified all-instance termination truth.
struct CuratedSet {
  std::string name;
  std::string program;
  bool oblivious_terminates = false;
  bool semi_oblivious_terminates = false;
};

/// Reads perfbench/curated.dlgp next to the benchmark sources.
std::vector<CuratedSet> LoadCuratedSets(const std::string& path);

/// A random rule set of the decide corpus, in rule syntax.
struct RandomSetText {
  uint32_t index = 0;  ///< Which structure; the same for every seed.
  std::string program;
  std::string requested_class;  ///< "SL", "L" or "G".
};

/// `count` random SL/L/G rule sets (16 predicates, 24 rules, arity <= 3),
/// the classes in equal thirds. The seed names the predicates and orders
/// the rules and sets; the rule structure is the same for every seed.
std::vector<RandomSetText> RandomRuleSets(uint64_t seed, uint32_t count);

/// ltree(k): binary_tree(k) with a repeated body variable, so linear but
/// not simple linear; terminating for both chase variants.
std::string LtreeProgram(uint32_t depth);

// ---- Workloads -----------------------------------------------------------

WorkloadResult RunClosure(const RunConfig& config);
WorkloadResult RunBulk(const RunConfig& config);
WorkloadResult RunDecideCorpus(const RunConfig& config);

/// ru_maxrss of this process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
