#include "obs/trace.h"

namespace gchase {

namespace {

struct NamedCategory {
  const char* name;
  TraceCategory category;
};

constexpr NamedCategory kCategories[] = {
    {"chase", TraceCategory::kChase},     {"pool", TraceCategory::kPool},
    {"decider", TraceCategory::kDecider}, {"storage", TraceCategory::kStorage},
    {"fuzz", TraceCategory::kFuzz},
};

/// Per-thread buffer cache: valid only while the session stamp matches,
/// so Start() can discard old buffers without chasing thread-locals —
/// a stale cache is simply re-registered on the next record.
struct ThreadSlot {
  TraceBuffer* buffer = nullptr;
  uint64_t session = 0;
};

thread_local ThreadSlot tls_slot;

}  // namespace

const char* TraceCategoryName(TraceCategory category) {
  for (const NamedCategory& entry : kCategories) {
    if (entry.category == category) return entry.name;
  }
  return "?";
}

uint32_t ParseTraceCategories(std::string_view csv, bool* ok) {
  *ok = true;
  if (csv.empty()) return kAllTraceCategories;
  uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string_view::npos) comma = csv.size();
    const std::string_view name = csv.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    bool found = false;
    for (const NamedCategory& entry : kCategories) {
      if (name == entry.name) {
        mask |= static_cast<uint32_t>(entry.category);
        found = true;
        break;
      }
    }
    if (!found) {
      *ok = false;
      return 0;
    }
  }
  return mask;
}

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Start(const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  buffer_capacity_ = config.buffer_capacity;
  complete_threshold_ns_ = config.complete_threshold_ns;
  epoch_ns_ = SteadyNowNs();
  session_.fetch_add(1, std::memory_order_release);
  internal::SetObsFlags(kAllTraceCategories, false);
  internal::SetObsFlags(config.categories & kAllTraceCategories, true);
}

TraceBuffer* Tracer::BufferForThisThread() {
  const uint64_t session = session_.load(std::memory_order_acquire);
  if (tls_slot.buffer == nullptr || tls_slot.session != session) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t tid = static_cast<uint32_t>(buffers_.size()) + 1;
    buffers_.push_back(std::make_unique<TraceBuffer>(tid, buffer_capacity_));
    buffers_created_.fetch_add(1, std::memory_order_relaxed);
    tls_slot.buffer = buffers_.back().get();
    tls_slot.session = session;
  }
  return tls_slot.buffer;
}

bool Tracer::RecordBegin(TraceCategory category, const char* name,
                         uint64_t arg, uint64_t now_ns) {
  return BufferForThisThread()->PushChecked(
      {name, SinceEpoch(now_ns), 0, arg, category, TracePhase::kBegin});
}

void Tracer::RecordEnd(TraceCategory category, const char* name,
                       uint64_t now_ns) {
  BufferForThisThread()->PushEnd(
      {name, SinceEpoch(now_ns), 0, kNoTraceArg, category, TracePhase::kEnd});
}

void Tracer::RecordInstant(TraceCategory category, const char* name,
                           uint64_t arg) {
  const uint64_t now_ns = SteadyNowNs();
  BufferForThisThread()->PushChecked(
      {name, SinceEpoch(now_ns), 0, arg, category, TracePhase::kInstant});
}

void Tracer::RecordComplete(TraceCategory category, const char* name,
                            uint64_t start_ns, uint64_t dur_ns, uint64_t arg) {
  if (dur_ns < complete_threshold_ns_) return;
  BufferForThisThread()->PushChecked(
      {name, start_ns, dur_ns, arg, category, TracePhase::kComplete});
}

std::vector<Tracer::ThreadEvents> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ThreadEvents> out;
  out.reserve(buffers_.size());
  for (const std::unique_ptr<TraceBuffer>& buffer : buffers_) {
    ThreadEvents thread;
    thread.tid = buffer->tid();
    thread.dropped = buffer->dropped();
    const std::size_t n = buffer->count_.load(std::memory_order_acquire);
    thread.events.assign(buffer->events_.begin(), buffer->events_.begin() + n);
    out.push_back(std::move(thread));
  }
  return out;
}

uint64_t Tracer::TotalDropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const std::unique_ptr<TraceBuffer>& buffer : buffers_) {
    total += buffer->dropped();
  }
  return total;
}

}  // namespace gchase
