#ifndef GCHASE_BASE_MEMORY_BUDGET_H_
#define GCHASE_BASE_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <utility>

namespace gchase {

/// Thread-safe byte accounting for one run (or a group of runs sharing a
/// budget, e.g. the decider cascade's sequential phases or a future
/// multi-tenant server's per-request admission control).
///
/// The budget is *level-based*: growth sites Charge() the bytes they
/// retain and Release() them when the owning structure dies, so
/// `in_use_bytes()` tracks live capacity, not cumulative allocation. That
/// makes a budget shareable across sequential engine runs — a probe run
/// that releases its instance hands its headroom to the next phase — and
/// across concurrent ones, where the charges simply sum.
///
/// Two thresholds:
///  - the *hard limit* is enforced: `Exceeded()` trips the governor at
///    the engines' cooperative checkpoints, and `WouldExceed()` lets
///    pre-size points (ReserveAdditional, TryAddBatch's exact-sized grow)
///    deny a projected allocation *before* the memory is committed, so a
///    trip surfaces as a clean ChaseOutcome::kMemoryBudgetExceeded with
///    the partial instance intact — never a throw mid-grow;
///  - the *soft watermark* is advisory: observability and admission
///    control read `SoftExceeded()`, the engines never stop on it.
///
/// All operations are relaxed atomics — the budget bounds resources, it
/// does not order memory; the structures it meters carry their own
/// synchronization.
class MemoryBudget {
 public:
  /// Hard-limit value meaning "no limit".
  static constexpr uint64_t kUnlimited = std::numeric_limits<uint64_t>::max();

  explicit MemoryBudget(uint64_t hard_limit_bytes = kUnlimited,
                        uint64_t soft_watermark_bytes = 0)
      : hard_limit_(hard_limit_bytes == 0 ? kUnlimited : hard_limit_bytes),
        soft_watermark_(soft_watermark_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Records `bytes` of retained capacity. Never fails: enforcement
  /// happens at the governed checkpoints and pre-size checks, which keep
  /// any overshoot bounded by one growth step.
  void Charge(uint64_t bytes) {
    if (bytes == 0) return;
    const uint64_t now =
        in_use_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  /// Returns previously charged capacity (on structure destruction or
  /// shrink). Must not exceed the total outstanding charge.
  void Release(uint64_t bytes) {
    in_use_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// True when live usage is over the hard limit right now.
  bool Exceeded() const {
    return in_use_.load(std::memory_order_relaxed) > hard_limit_;
  }

  /// True when charging `extra_bytes` more would cross the hard limit —
  /// the pre-size check hoisted in front of bulk growth.
  bool WouldExceed(uint64_t extra_bytes) const {
    if (hard_limit_ == kUnlimited) return false;
    const uint64_t used = in_use_.load(std::memory_order_relaxed);
    return extra_bytes > hard_limit_ || used > hard_limit_ - extra_bytes;
  }

  /// True when live usage is over the (advisory) soft watermark.
  bool SoftExceeded() const {
    return soft_watermark_ != 0 &&
           in_use_.load(std::memory_order_relaxed) > soft_watermark_;
  }

  /// Counts one denied pre-size request (observability; the denying
  /// engine surfaces the actual stop).
  void NoteDenied() { denials_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t in_use_bytes() const {
    return in_use_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t denials() const { return denials_.load(std::memory_order_relaxed); }
  uint64_t hard_limit_bytes() const { return hard_limit_; }
  uint64_t soft_watermark_bytes() const { return soft_watermark_; }
  bool limited() const { return hard_limit_ != kUnlimited; }

 private:
  const uint64_t hard_limit_;
  const uint64_t soft_watermark_;
  std::atomic<uint64_t> in_use_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> denials_{0};
};

/// RAII handle on one structure's charge against a MemoryBudget: releases
/// on destruction or re-attach, drops on copy (copies are unbudgeted),
/// transfers on move — which keeps an owner's implicit copy and move
/// correct without hand-written member lists. The budget must outlive the
/// attachment.
class BudgetAttachment {
 public:
  BudgetAttachment() = default;
  ~BudgetAttachment() { Reset(nullptr); }
  BudgetAttachment(const BudgetAttachment&) {}
  BudgetAttachment& operator=(const BudgetAttachment&) {
    Reset(nullptr);
    return *this;
  }
  BudgetAttachment(BudgetAttachment&& other) noexcept
      : budget_(std::exchange(other.budget_, nullptr)),
        charged_(std::exchange(other.charged_, 0)) {}
  BudgetAttachment& operator=(BudgetAttachment&& other) noexcept {
    if (this != &other) {
      Reset(nullptr);
      budget_ = std::exchange(other.budget_, nullptr);
      charged_ = std::exchange(other.charged_, 0);
    }
    return *this;
  }

  /// Releases the outstanding charge and attaches `budget` (nullptr
  /// detaches).
  void Reset(MemoryBudget* budget) {
    if (budget_ != nullptr && charged_ != 0) budget_->Release(charged_);
    budget_ = budget;
    charged_ = 0;
  }
  void Charge(uint64_t bytes) {
    if (budget_ == nullptr || bytes == 0) return;
    budget_->Charge(bytes);
    charged_ += bytes;
  }
  /// Ratchets the charge up to `bytes` of retained capacity; never
  /// releases, since a reused buffer keeps its capacity.
  void ChargeUpTo(uint64_t bytes) {
    if (bytes > charged_) Charge(bytes - charged_);
  }
  MemoryBudget* get() const { return budget_; }

 private:
  MemoryBudget* budget_ = nullptr;
  uint64_t charged_ = 0;
};

}  // namespace gchase

#endif  // GCHASE_BASE_MEMORY_BUDGET_H_
