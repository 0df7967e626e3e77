#ifndef GCHASE_OBS_PROGRESS_H_
#define GCHASE_OBS_PROGRESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace gchase {

/// Process-wide progress counters, written by the engine and read by the
/// heartbeat thread. The engine stores current levels (rounds, atoms,
/// triggers) once per round behind a ProgressEnabled() check; the fuzz
/// runner bumps trial tallies per trial. Everything relaxed — a torn
/// read across fields only skews one heartbeat line.
struct ProgressCounters {
  std::atomic<uint64_t> rounds{0};
  std::atomic<uint64_t> atoms{0};
  std::atomic<uint64_t> triggers{0};
  std::atomic<uint64_t> trials_started{0};
  std::atomic<uint64_t> trials_run{0};
  std::atomic<uint64_t> trials_failed{0};
};

ProgressCounters& GlobalProgress();

namespace internal {
extern std::atomic<bool> g_progress_enabled;
}  // namespace internal

/// True while a ProgressReporter is running. Engine update sites guard
/// their stores behind this one relaxed load, keeping the off cost at
/// the same one-load-per-site bar as tracing and profiling.
inline bool ProgressEnabled() {
  return internal::g_progress_enabled.load(std::memory_order_relaxed);
}

/// Opt-in heartbeat: a background thread that samples GlobalProgress()
/// every interval and emits one line per tick — human-readable to
/// stderr, or NDJSON to a file. Stop() (idempotent, also run by the
/// destructor) emits a final sample, so runs cut short by SIGINT or a
/// deadline still flush their last state, mirroring the trace layer's
/// flush-on-every-exit-path discipline.
///
/// Environment context (memory budget, deadline) comes in as optional
/// callbacks so this header stays std-only (obs/ does not depend on
/// base/).
class ProgressReporter {
 public:
  enum class Mode {
    kChase,  ///< round / atoms / atoms-per-second / memory / deadline.
    kFuzz,   ///< trials started / run / failed / trials-per-second.
  };

  struct Options {
    Mode mode = Mode::kChase;
    uint64_t interval_ms = 1000;
    /// Empty => human-readable lines on stderr; otherwise NDJSON lines
    /// are appended to this file.
    std::string ndjson_path;
    /// Optional samplers, polled once per tick. Null => field omitted.
    std::function<uint64_t()> in_use_bytes;
    std::function<uint64_t()> budget_bytes;
    /// Seconds until the deadline; return a negative value for "none".
    std::function<double()> remaining_seconds;
  };

  ProgressReporter() = default;
  ~ProgressReporter() { Stop(); }

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Spawns the heartbeat thread and flips ProgressEnabled() on.
  /// Returns false (reporter stays stopped) when the NDJSON file cannot
  /// be opened. Start on a running reporter is a no-op returning true.
  bool Start(const Options& options);

  /// Emits one final sample, joins the thread, flips ProgressEnabled()
  /// off. Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// Heartbeat lines emitted so far (tests).
  uint64_t samples_emitted() const {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void EmitSample(uint64_t now_ns);

  Options options_;
  std::thread thread_;
  bool running_ = false;
  std::ofstream ndjson_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;

  uint64_t start_ns_ = 0;
  uint64_t last_sample_ns_ = 0;
  uint64_t last_atoms_ = 0;
  uint64_t last_trials_ = 0;
  std::atomic<uint64_t> samples_{0};
};

}  // namespace gchase

#endif  // GCHASE_OBS_PROGRESS_H_
