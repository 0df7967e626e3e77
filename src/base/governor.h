#ifndef GCHASE_BASE_GOVERNOR_H_
#define GCHASE_BASE_GOVERNOR_H_

#include "base/cancellation.h"
#include "base/deadline.h"
#include "base/memory_budget.h"

namespace gchase {

/// What a governor checkpoint observed.
enum class GovernorState {
  kOk,                    ///< Keep going.
  kDeadlineExceeded,      ///< The wall-clock budget ran out.
  kCancelled,             ///< An external caller requested a stop.
  kMemoryBudgetExceeded,  ///< The byte budget's hard limit was crossed.
};

/// Why a governed computation stopped before reaching a proof — the
/// shared vocabulary of every "unknown"-style verdict in the termination
/// layer and of partial results elsewhere.
enum class StopReason {
  kNone,         ///< Did not stop early.
  kResourceCap,  ///< A count cap (steps / atoms / nulls / work) was hit.
  kDeadline,     ///< The wall-clock budget expired.
  kCancelled,    ///< Cancellation was requested.
  kMemory,       ///< The memory budget's hard limit was crossed.
};

/// Returns "none", "resource-cap", "deadline", "cancelled" or "memory".
inline const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kResourceCap:
      return "resource-cap";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
    case StopReason::kMemory:
      return "memory";
  }
  return "?";
}

/// An immutable bundle of the run-abort signals, checked cooperatively
/// at the engines' checkpoints (round boundaries, trigger applications,
/// discovery units, and every ~1k candidate visits inside a join search).
/// Checking is cheap — relaxed atomic loads, plus one steady-clock read
/// only when a finite deadline is set — and thread-safe, so another
/// thread may cancel while the run checks.
///
/// The optional memory budget is observed level-based: a checkpoint trips
/// while live usage is over the hard limit. The budget must outlive the
/// governor (ChaseRun owns both and orders them accordingly).
class RunGovernor {
 public:
  RunGovernor() = default;
  RunGovernor(Deadline deadline, CancellationToken cancel,
              const MemoryBudget* memory = nullptr)
      : deadline_(deadline), cancel_(std::move(cancel)), memory_(memory) {}

  /// Cancellation wins over deadline expiry when both hold (an explicit
  /// user action beats a timer), and both win over a memory trip.
  GovernorState Check() const {
    if (cancel_.Cancelled()) return GovernorState::kCancelled;
    if (deadline_.Expired()) return GovernorState::kDeadlineExceeded;
    if (memory_ != nullptr && memory_->Exceeded()) {
      return GovernorState::kMemoryBudgetExceeded;
    }
    return GovernorState::kOk;
  }

  const Deadline& deadline() const { return deadline_; }
  const CancellationToken& cancel() const { return cancel_; }
  const MemoryBudget* memory() const { return memory_; }

 private:
  Deadline deadline_;
  CancellationToken cancel_;
  const MemoryBudget* memory_ = nullptr;
};

}  // namespace gchase

#endif  // GCHASE_BASE_GOVERNOR_H_
