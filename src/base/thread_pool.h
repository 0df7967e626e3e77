#ifndef GCHASE_BASE_THREAD_POOL_H_
#define GCHASE_BASE_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/phase.h"
#include "obs/trace.h"

namespace gchase {

/// A persistent work-stealing pool for index-space parallelism.
///
/// One pool is meant to live for a whole run (or be shared across runs):
/// workers are spawned once and parked between jobs, so per-round
/// fan-outs pay a wake + merge, not a thread spawn + join. `ParallelFor`
/// executes `fn(u)` for every `u` in `[0, num_units)` and returns when
/// all units are done; the calling thread participates in the work, so a
/// 1-worker pool degenerates to a plain loop.
///
/// Scheduling: the unit space is cut into ~4 chunks per worker, dealt
/// round-robin into per-worker deques. A worker drains its own deque
/// front-first; when empty it steals — half of a victim's chunks, or the
/// back half of the victim's last chunk (split-steal) — which bounds
/// steal traffic while keeping the tail balanced.
///
/// Determinism: the pool imposes no order on unit execution, so callers
/// needing deterministic results must key them by unit index (the chase's
/// discovery merge does exactly this). `fn` runs concurrently from
/// multiple threads and must only touch per-unit state or synchronized
/// shared state.
///
/// Nesting: a `ParallelFor` issued from inside a pool task runs inline
/// and serial on the calling worker. This makes composite fan-outs (e.g.
/// the restricted probe running chase runs that themselves request
/// parallel discovery) deadlock-free by construction, at the cost of no
/// nested parallelism.
///
/// Concurrent `ParallelFor` calls from different external threads
/// serialize on an internal job lock.
///
/// Exceptions: a throw from `fn` on any worker is captured, the job
/// drains (other workers skip their remaining units), and the first
/// exception is rethrown on the thread that called `ParallelFor`. A
/// helper thread therefore never dies to an escaped exception — without
/// this, a std::bad_alloc in a discovery unit would std::terminate the
/// process instead of degrading to a memory-budget stop.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t workers)
      : workers_(std::max<uint32_t>(1, workers)), slots_(workers_) {
    helpers_.reserve(workers_ - 1);
    for (uint32_t t = 1; t < workers_; ++t) {
      helpers_.emplace_back([this, t]() { HelperLoop(t); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& helper : helpers_) helper.join();
  }

  /// Total workers, including the caller's slot.
  uint32_t worker_count() const { return workers_; }

  /// True when called from inside a pool task (used to inline nested
  /// fan-outs).
  static bool InPoolTask() { return in_pool_task_; }

  void ParallelFor(uint64_t num_units,
                   const std::function<void(uint64_t)>& fn) {
    if (num_units == 0) return;
    if (workers_ <= 1 || in_pool_task_) {
      // Serial fast path: a throw propagates naturally to the caller.
      for (uint64_t u = 0; u < num_units; ++u) fn(u);
      return;
    }
    PhaseScope job_scope(Phase::kPoolJob, num_units);
    std::lock_guard<std::mutex> job_lock(job_mutex_);
    // Publish the job before any chunk becomes visible: a straggler from
    // the previous job may pick up these chunks through a slot mutex, and
    // must then observe this fn and a remaining_ that cannot underflow.
    job_fn_.store(&fn, std::memory_order_release);
    remaining_.store(num_units, std::memory_order_release);
    const uint64_t chunk =
        std::max<uint64_t>(1, num_units / (uint64_t{workers_} * 4));
    uint32_t s = 0;
    for (uint64_t begin = 0; begin < num_units; begin += chunk) {
      const uint64_t end = std::min(num_units, begin + chunk);
      std::lock_guard<std::mutex> lock(slots_[s].mu);
      slots_[s].chunks.push_back(Chunk{begin, end});
      s = (s + 1) % workers_;
    }
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      ++epoch_;
    }
    wake_cv_.notify_all();
    Work(0);
    // The caller ran dry; wait for workers still executing their last
    // chunk. The release sequence on remaining_ makes all their unit
    // writes visible here.
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [this]() {
        return remaining_.load(std::memory_order_acquire) == 0;
      });
    }
    job_fn_.store(nullptr, std::memory_order_release);
    // Rethrow a worker-captured exception on the submitting thread, after
    // the job fully drained (every chunk accounted, no straggler still
    // touching fn or the caller's captures).
    if (job_failed_.load(std::memory_order_acquire)) {
      std::exception_ptr error;
      {
        std::lock_guard<std::mutex> lock(error_mutex_);
        error = std::exchange(job_error_, nullptr);
      }
      job_failed_.store(false, std::memory_order_release);
      if (error != nullptr) std::rethrow_exception(error);
    }
  }

 private:
  struct Chunk {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  struct Slot {
    std::mutex mu;
    std::deque<Chunk> chunks;
  };

  bool PopLocal(uint32_t self, Chunk* out) {
    Slot& slot = slots_[self];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.chunks.empty()) return false;
    *out = slot.chunks.front();
    slot.chunks.pop_front();
    return true;
  }

  /// Steal-half from the first victim with work: half its chunks, or the
  /// back half of its only chunk.
  bool Steal(uint32_t self, Chunk* out) {
    for (uint32_t d = 1; d < workers_; ++d) {
      const uint32_t victim = (self + d) % workers_;
      Slot& vslot = slots_[victim];
      std::deque<Chunk> taken;
      {
        std::lock_guard<std::mutex> lock(vslot.mu);
        const std::size_t n = vslot.chunks.size();
        if (n == 0) continue;
        if (n == 1) {
          Chunk& last = vslot.chunks.back();
          const uint64_t len = last.end - last.begin;
          if (len >= 2) {
            taken.push_back(Chunk{last.begin + len / 2, last.end});
            last.end = last.begin + len / 2;
          } else {
            taken.push_back(last);
            vslot.chunks.pop_back();
          }
        } else {
          for (std::size_t i = 0; i < (n + 1) / 2; ++i) {
            taken.push_front(vslot.chunks.back());
            vslot.chunks.pop_back();
          }
        }
      }
      *out = taken.front();
      taken.pop_front();
      if (!taken.empty()) {
        Slot& slot = slots_[self];
        std::lock_guard<std::mutex> lock(slot.mu);
        for (const Chunk& c : taken) slot.chunks.push_back(c);
      }
      GCHASE_TRACE_INSTANT(TraceCategory::kPool, "pool.steal", victim);
      return true;
    }
    return false;
  }

  void Work(uint32_t self) {
    in_pool_task_ = true;
    Chunk chunk;
    while (PopLocal(self, &chunk) || Steal(self, &chunk)) {
      // Any thread holding an unexecuted chunk keeps remaining_ > 0, so
      // the job (and its fn) stays alive until the chunk is done.
      const std::function<void(uint64_t)>* fn =
          job_fn_.load(std::memory_order_acquire);
      {
        PhaseScope run_scope(Phase::kPoolRun, chunk.end - chunk.begin);
        // A failed job still drains: remaining units are claimed and
        // skipped (cheap flag check per chunk) so remaining_ reaches 0
        // and the submitting thread can wake up and rethrow.
        if (!job_failed_.load(std::memory_order_relaxed)) {
          try {
            for (uint64_t u = chunk.begin; u < chunk.end; ++u) {
              (*fn)(u);
            }
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex_);
            if (job_error_ == nullptr) {
              job_error_ = std::current_exception();
            }
            job_failed_.store(true, std::memory_order_release);
          }
        }
      }
      const uint64_t len = chunk.end - chunk.begin;
      if (remaining_.fetch_sub(len, std::memory_order_acq_rel) == len) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
      }
    }
    in_pool_task_ = false;
  }

  void HelperLoop(uint32_t self) {
    uint64_t seen = 0;
    for (;;) {
      {
        // Park/unpark bracket the wait so a trace shows exactly when a
        // worker slept versus span between jobs; instants, not spans, so
        // an exporter reading mid-park still sees a balanced stream.
        GCHASE_TRACE_INSTANT(TraceCategory::kPool, "pool.park", self);
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait(lock, [&]() { return shutdown_ || epoch_ != seen; });
        GCHASE_TRACE_INSTANT(TraceCategory::kPool, "pool.unpark", self);
        if (shutdown_) return;
        seen = epoch_;
      }
      Work(self);
    }
  }

  const uint32_t workers_;
  std::vector<Slot> slots_;
  std::vector<std::thread> helpers_;

  /// Serializes jobs from concurrent external callers.
  std::mutex job_mutex_;
  std::atomic<const std::function<void(uint64_t)>*> job_fn_{nullptr};
  std::atomic<uint64_t> remaining_{0};

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  /// First exception thrown by the current job's fn, rethrown by
  /// ParallelFor on the submitting thread. job_failed_ doubles as the
  /// cheap per-chunk "stop doing work" flag while the job drains.
  std::atomic<bool> job_failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr job_error_;

  inline static thread_local bool in_pool_task_ = false;
};

}  // namespace gchase

#endif  // GCHASE_BASE_THREAD_POOL_H_
