#include "obs/perf_counters.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "obs/metrics.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace gchase {

namespace {

std::atomic<bool> g_perf_available{false};
std::atomic<bool> g_hw_available{false};

// Written once under g_reason_mu by the EnablePerfCounters probe, read
// by PerfUnavailableReason.
std::mutex g_reason_mu;
std::string& UnavailableReason() {
  static std::string* const reason = new std::string();
  return *reason;
}

// phase x event aggregates plus completed-scope counts. Value-init
// zeroes every atomic.
struct PhaseAccumulator {
  std::atomic<uint64_t> scopes{0};
  std::array<std::atomic<uint64_t>, kNumPerfEvents> events{};
};
PhaseAccumulator g_phases[kNumPerfPhases];

// JSON keys of the PerfEventKind columns, in enum order.
constexpr const char* kEventNames[kNumPerfEvents] = {
    "cycles",       "instructions",  "cache_references",
    "cache_misses", "branch_misses", "task_clock_ns"};

void AppendRatio(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.4f", key, value);
  *out += buf;
}

#if defined(__linux__)

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

constexpr EventSpec kEventSpecs[kNumPerfEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK},
};

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

/// One counter group per recording thread, lazily opened on the first
/// enabled scope. The cycles leader must open or the whole group is
/// skipped; individual member failures (odd PMUs lacking e.g. cache
/// events) just leave that event unrecorded.
struct ThreadGroup {
  bool tried = false;
  bool software_only = false;
  int leader = -1;
  int fds[kNumPerfEvents];
  int slot_of[kNumPerfEvents];  ///< Index into the group read, or -1.
  int open_count = 0;
  int open_errno = 0;

  ~ThreadGroup() { Close(); }

  void Close() {
    for (int i = 0; i < kNumPerfEvents; ++i) {
      if (fds[i] >= 0) close(fds[i]);
      fds[i] = -1;
      slot_of[i] = -1;
    }
    leader = -1;
    open_count = 0;
  }

  bool Open() {
    tried = true;
    for (int i = 0; i < kNumPerfEvents; ++i) {
      fds[i] = -1;
      slot_of[i] = -1;
    }
    for (int i = 0; i < kNumPerfEvents; ++i) {
      perf_event_attr attr;
      std::memset(&attr, 0, sizeof(attr));
      attr.size = sizeof(attr);
      attr.type = kEventSpecs[i].type;
      attr.config = kEventSpecs[i].config;
      attr.disabled = (i == 0) ? 1 : 0;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP;
      const int fd = static_cast<int>(
          PerfEventOpen(&attr, 0, -1, leader, PERF_FLAG_FD_CLOEXEC));
      if (fd < 0) {
        if (i == 0) {
          open_errno = errno;
          return OpenSoftwareOnly();
        }
        continue;
      }
      fds[i] = fd;
      slot_of[i] = open_count++;
      if (i == 0) leader = fd;
    }
    ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    return true;
  }

  /// Containers without a PMU (common in CI) reject every
  /// PERF_TYPE_HARDWARE event. Fall back to a task-clock-only group so
  /// phase attribution still gets on-CPU time; open_errno keeps the
  /// hardware failure for the snapshot's hardware_reason.
  bool OpenSoftwareOnly() {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_SOFTWARE;
    attr.config = PERF_COUNT_SW_TASK_CLOCK;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    const int fd = static_cast<int>(
        PerfEventOpen(&attr, 0, -1, -1, PERF_FLAG_FD_CLOEXEC));
    if (fd < 0) return false;
    fds[kPerfTaskClockNs] = fd;
    slot_of[kPerfTaskClockNs] = 0;
    open_count = 1;
    leader = fd;
    software_only = true;
    ioctl(leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
    return true;
  }

  bool ReadValues(uint64_t out[kNumPerfEvents]) {
    struct {
      uint64_t nr;
      uint64_t values[kNumPerfEvents];
    } buf;
    const ssize_t n = read(leader, &buf, sizeof(buf));
    if (n < 0) return false;
    for (int i = 0; i < kNumPerfEvents; ++i) {
      out[i] = 0;
      if (slot_of[i] >= 0 &&
          static_cast<uint64_t>(slot_of[i]) < buf.nr) {
        out[i] = buf.values[slot_of[i]];
      }
    }
    return true;
  }
};

thread_local ThreadGroup tl_group;

std::string OpenFailureReason(int err) {
  if (err == EACCES || err == EPERM) {
    return "permission denied (lower /proc/sys/kernel/perf_event_paranoid "
           "or grant CAP_PERFMON)";
  }
  if (err == ENOENT || err == ENODEV || err == EOPNOTSUPP) {
    return "hardware events not supported on this machine";
  }
  if (err == ENOSYS) {
    return "perf_event_open not implemented (blocked by seccomp?)";
  }
  return std::string("perf_event_open failed: ") + std::strerror(err);
}

#endif  // __linux__

}  // namespace

const char* PerfPhaseName(PerfPhase phase) {
  constexpr const char* kNames[kNumPerfPhases] = {
      "discovery", "apply", "dedup_growth", "decider", "load"};
  const int index = static_cast<int>(phase);
  return index >= 0 && index < kNumPerfPhases ? kNames[index] : "unknown";
}

bool EnablePerfCounters() {
  // The snapshot section is registered on every path so the "perf" key
  // is present (and shaped the same) whether or not counters work here.
  MetricsRegistry::Global().SetJsonSection("perf", PerfSnapshotJson);
#if defined(__linux__)
  if (!tl_group.tried || tl_group.leader < 0) {
    tl_group.Close();
    if (!tl_group.Open()) {
      g_perf_available.store(false, std::memory_order_relaxed);
      internal::SetObsFlags(internal::kPerfFlag, false);
      std::lock_guard<std::mutex> lock(g_reason_mu);
      UnavailableReason() = OpenFailureReason(tl_group.open_errno);
      return false;
    }
  }
  g_perf_available.store(true, std::memory_order_relaxed);
  g_hw_available.store(!tl_group.software_only, std::memory_order_relaxed);
  internal::SetObsFlags(internal::kPerfFlag, true);
  {
    std::lock_guard<std::mutex> lock(g_reason_mu);
    if (tl_group.software_only) {
      // Counters work but only task-clock: keep the hardware failure so
      // the snapshot can say why ipc/cache_miss_rate are zero.
      UnavailableReason() = OpenFailureReason(tl_group.open_errno);
    } else {
      UnavailableReason().clear();
    }
  }
  return true;
#else
  g_perf_available.store(false, std::memory_order_relaxed);
  internal::SetObsFlags(internal::kPerfFlag, false);
  std::lock_guard<std::mutex> lock(g_reason_mu);
  UnavailableReason() = "perf_event_open is Linux-only";
  return false;
#endif
}

void DisablePerfCounters() {
  internal::SetObsFlags(internal::kPerfFlag, false);
}

bool PerfCountersAvailable() {
  return g_perf_available.load(std::memory_order_relaxed);
}

bool PerfHardwareEventsAvailable() {
  return g_hw_available.load(std::memory_order_relaxed);
}

std::string PerfUnavailableReason() {
  std::lock_guard<std::mutex> lock(g_reason_mu);
  return UnavailableReason();
}

PerfPhaseTotals PerfTotalsForPhase(PerfPhase phase) {
  PerfPhaseTotals totals;
  const PhaseAccumulator& acc = g_phases[static_cast<int>(phase)];
  totals.scopes = acc.scopes.load(std::memory_order_relaxed);
  for (int i = 0; i < kNumPerfEvents; ++i) {
    totals.events[i] = acc.events[i].load(std::memory_order_relaxed);
  }
  return totals;
}

std::string PerfSnapshotJson() {
  const bool available = PerfCountersAvailable();
  std::string out = "{\"available\": ";
  out += available ? "true" : "false";
  out += ", \"hardware_events\": ";
  out += PerfHardwareEventsAvailable() ? "true" : "false";
  const std::string reason = PerfUnavailableReason();
  if (!reason.empty()) {
    // Either nothing opened at all, or only the software fallback did
    // (ipc/cache_miss_rate stay zero); the key says which.
    out += available ? ", \"hardware_reason\": \"" : ", \"reason\": \"";
    out += reason + "\"";
  }
  out += ", \"phases\": {";
  for (int p = 0; p < kNumPerfPhases; ++p) {
    const PerfPhase phase = static_cast<PerfPhase>(p);
    const PerfPhaseTotals totals = PerfTotalsForPhase(phase);
    if (p != 0) out += ", ";
    out += '"';
    out += PerfPhaseName(phase);
    out += "\": {";
    out += "\"scopes\": " + std::to_string(totals.scopes);
    for (int i = 0; i < kNumPerfEvents; ++i) {
      out += ", \"" + std::string(kEventNames[i]) +
             "\": " + std::to_string(totals.events[i]);
    }
    out += ", ";
    const uint64_t cycles = totals.events[kPerfCycles];
    AppendRatio(&out, "ipc",
                cycles == 0
                    ? 0.0
                    : static_cast<double>(totals.events[kPerfInstructions]) /
                          static_cast<double>(cycles));
    out += ", ";
    const uint64_t refs = totals.events[kPerfCacheReferences];
    AppendRatio(&out, "cache_miss_rate",
                refs == 0
                    ? 0.0
                    : static_cast<double>(totals.events[kPerfCacheMisses]) /
                          static_cast<double>(refs));
    out += "}";
  }
  out += "}}";
  return out;
}

void ResetPerfCounters() {
  for (int p = 0; p < kNumPerfPhases; ++p) {
    g_phases[p].scopes.store(0, std::memory_order_relaxed);
    for (int i = 0; i < kNumPerfEvents; ++i) {
      g_phases[p].events[i].store(0, std::memory_order_relaxed);
    }
  }
}

namespace internal {

bool ReadPerfGroup(uint64_t values[kNumPerfEvents]) {
#if defined(__linux__)
  if (!tl_group.tried) tl_group.Open();
  return tl_group.leader >= 0 && tl_group.ReadValues(values);
#else
  (void)values;
  return false;
#endif
}

void AddPerfDeltas(PerfPhase phase, const uint64_t start[kNumPerfEvents]) {
  uint64_t end[kNumPerfEvents];
  if (!ReadPerfGroup(end)) return;
  PhaseAccumulator& acc = g_phases[static_cast<int>(phase)];
  acc.scopes.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < kNumPerfEvents; ++i) {
    const uint64_t delta = end[i] - start[i];
    // Guard against counter resets between reads (re-opened groups).
    if (end[i] >= start[i] && delta != 0) {
      acc.events[i].fetch_add(delta, std::memory_order_relaxed);
    }
  }
}

}  // namespace internal

}  // namespace gchase
