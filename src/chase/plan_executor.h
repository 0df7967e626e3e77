#ifndef GCHASE_CHASE_PLAN_EXECUTOR_H_
#define GCHASE_CHASE_PLAN_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "base/governor.h"
#include "base/memory_budget.h"
#include "chase/join_plan.h"
#include "storage/instance.h"

namespace gchase {

/// Columnar buffer of fixed-width binding rows (one row = the images of
/// one rule's variables, unbound slots holding the UnboundTerm sentinel).
/// The set-at-a-time discovery pipeline materializes the pivot delta and
/// every extension level into these instead of per-trigger Binding
/// vectors. Growth is charged to an attached memory budget with the same
/// ratchet the HeadBlock staging buffer uses: capacity deltas on growth,
/// the full charge released on re-attach or destruction.
class BindingSegment {
 public:
  BindingSegment() = default;
  BindingSegment(const BindingSegment&) = delete;
  BindingSegment& operator=(const BindingSegment&) = delete;
  ~BindingSegment() {
    if (budget_ != nullptr) budget_->Release(charged_bytes_);
  }

  void SetWidth(uint32_t width) {
    GCHASE_CHECK(terms_.empty());
    width_ = width;
  }
  uint32_t width() const { return width_; }
  uint64_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Copies one row of `width()` terms into the segment.
  void AppendRow(const Term* row) {
    terms_.insert(terms_.end(), row, row + width_);
    ++rows_;
    TrackGrowth();
  }

  const Term* row(uint64_t r) const { return terms_.data() + r * width_; }

  void Clear() {
    terms_.clear();
    rows_ = 0;
  }

  /// Bytes of heap capacity currently retained. Clear() keeps capacity,
  /// so this is a high-water figure by design.
  uint64_t capacity_bytes() const { return terms_.capacity() * sizeof(Term); }

  /// Attaches (or detaches, with nullptr) a budget to charge retained
  /// capacity to; see HeadBlock::SetMemoryBudget for the contract.
  void SetMemoryBudget(MemoryBudget* budget) {
    if (budget_ != nullptr) budget_->Release(charged_bytes_);
    budget_ = budget;
    charged_bytes_ = 0;
    TrackGrowth();
  }

 private:
  void TrackGrowth() {
    if (budget_ == nullptr) return;
    const uint64_t now = capacity_bytes();
    if (now > charged_bytes_) {
      budget_->Charge(now - charged_bytes_);
      charged_bytes_ = now;
    }
  }

  std::vector<Term> terms_;
  uint32_t width_ = 0;
  uint64_t rows_ = 0;
  MemoryBudget* budget_ = nullptr;
  uint64_t charged_bytes_ = 0;
};

/// Set-at-a-time executor for one compiled rule plan against one
/// discovery unit (rule, pivot). Stateless beyond the borrowed instance,
/// so any number may run concurrently over pivot-delta chunks; each call
/// writes only its own output segment and status.
class PlanExecutor {
 public:
  /// What one unit execution did. `charge` is the unit's join-work in the
  /// backtracking engine's units: for every node (seed scan or extension
  /// row) the *unclipped* length of the most selective posting list, i.e.
  /// exactly the candidates the backtracking search would have visited —
  /// so plan units and search units account join work alike, and the
  /// capped-round check compares like with like.
  struct UnitStatus {
    uint64_t charge = 0;
    uint64_t rows = 0;  ///< Complete bindings materialized.
    bool budget_exhausted = false;  ///< charge or found_cap ran out.
    bool governor_tripped = false;
  };

  explicit PlanExecutor(const Instance& instance) : instance_(instance) {}

  /// Executes one (rule, pivot) unit: seeds from the first step's
  /// range-clipped postings, extends row-by-row through the second step
  /// (if any), and appends every complete binding to `*out` in the exact
  /// order the backtracking search enumerates — id-lexicographic in the
  /// chosen conjunct order. `first` is this round's depth-zero conjunct
  /// choice (from ChooseFirstConjunct). Stops early once `charge` would
  /// exceed `max_charge` or `rows` reaches `found_cap` (budget_exhausted;
  /// `*out` then holds a prefix of the unit's rows), or when the governor
  /// trips.
  /// `scratch` is reused across units to keep steady-state execution
  /// allocation-free; the caller provides one per worker.
  UnitStatus ExecuteUnit(const RuleJoinPlan& plan, uint32_t pivot,
                         uint32_t first, AtomId watermark, uint64_t max_charge,
                         uint64_t found_cap, const RunGovernor* governor,
                         BindingSegment* scratch, BindingSegment* out) const;

 private:
  const Instance& instance_;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_PLAN_EXECUTOR_H_
