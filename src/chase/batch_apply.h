#ifndef GCHASE_CHASE_BATCH_APPLY_H_
#define GCHASE_CHASE_BATCH_APPLY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/memory_budget.h"
#include "model/atom.h"
#include "storage/instance.h"

namespace gchase {

/// Columnar staging block for set-at-a-time rule application.
///
/// The apply phase substitutes each pending trigger's head atoms directly
/// into this scratch buffer — terms land in one flat array, exactly like
/// a TermArena, with no per-atom `Atom` heap allocation — and the whole
/// block is then deduped into the store via `Instance::TryAddBatch`.
///
/// Rows are grouped into segments of equal (predicate, arity): an Append
/// whose shape matches the previous row extends the current segment, so a
/// run of same-rule triggers (the common case after round ordering) lands
/// in one segment and flushes as one bulk call. Mixed-shape heads degrade
/// gracefully into shorter segments. Segments flush in staging order, so
/// atom ids come out exactly as if each head atom had been inserted
/// one TryAdd at a time.
///
/// The block is reused across flushes and rounds; Clear() keeps capacity.
class HeadBlock {
 public:
  HeadBlock() = default;
  HeadBlock(const HeadBlock&) = delete;
  HeadBlock& operator=(const HeadBlock&) = delete;

  /// Where a staged row came from, for provenance runs: the applied
  /// trigger (an index into ChaseRun::triggers()) and which of its rule's
  /// head atoms the row instantiates.
  struct Origin {
    uint32_t trigger = 0;
    uint32_t head_index = 0;
  };

  /// Reserves a row of `arity` terms for one head atom of `pred` and
  /// returns the slot to write its ground arguments into. The pointer is
  /// invalidated by the next Append — write immediately.
  Term* Append(PredicateId pred, uint32_t arity) {
    if (segments_.empty() || segments_.back().predicate != pred ||
        segments_.back().arity != arity) {
      segments_.push_back(
          Segment{pred, arity, static_cast<uint32_t>(terms_.size()), 0});
    }
    ++segments_.back().rows;
    ++atoms_;
    const std::size_t offset = terms_.size();
    terms_.resize(offset + arity);
    budget_.ChargeUpTo(capacity_bytes());
    return terms_.data() + offset;
  }

  /// Append that also records the row's origin in the provenance column;
  /// a block staged this way gets one atom id per row from FlushInto (see
  /// ids()). Between two Clear()s, stage every row this way or none.
  Term* Append(PredicateId pred, uint32_t arity, Origin origin) {
    origins_.push_back(origin);
    return Append(pred, arity);
  }

  /// Dedups and appends every staged row into `instance`, in staging
  /// order (one TryAddBatch per segment). When the provenance column is
  /// in use, ids() then holds each row's atom id: the new id, or the id
  /// of the atom a duplicate row repeats. Returns the number of segments
  /// flushed. Does not Clear() — the caller decides when to reuse.
  uint32_t FlushInto(Instance* instance);

  uint32_t atoms() const { return atoms_; }
  uint32_t segments() const { return static_cast<uint32_t>(segments_.size()); }
  bool empty() const { return atoms_ == 0; }
  /// The provenance column, one origin per staged row.
  const std::vector<Origin>& origins() const { return origins_; }
  /// One atom id per staged row, valid after FlushInto.
  const std::vector<AtomId>& ids() const { return ids_; }

  void Clear() {
    segments_.clear();
    terms_.clear();
    origins_.clear();
    atoms_ = 0;
  }

  /// Bytes of heap capacity currently retained by the staging buffers.
  /// Clear() keeps capacity, so this is a high-water figure by design.
  uint64_t capacity_bytes() const {
    return segments_.capacity() * sizeof(Segment) +
           terms_.capacity() * sizeof(Term) +
           origins_.capacity() * sizeof(Origin) +
           ids_.capacity() * sizeof(AtomId);
  }

  /// Attaches (or detaches, with nullptr) a budget to charge the staging
  /// buffers' retained capacity to. Charges the current capacity
  /// immediately and every later growth as it happens; the outstanding
  /// charge is released on re-attach or destruction. Capacity never
  /// shrinks (Clear() retains it), so the charge only ratchets up. The
  /// budget must outlive the block.
  void SetMemoryBudget(MemoryBudget* budget) {
    budget_.Reset(budget);
    budget_.ChargeUpTo(capacity_bytes());
  }

 private:
  /// A maximal run of staged rows sharing one (predicate, arity) shape.
  struct Segment {
    PredicateId predicate = 0;
    uint32_t arity = 0;
    uint32_t offset = 0;  ///< First term of the run in terms_.
    uint32_t rows = 0;
  };

  std::vector<Segment> segments_;
  std::vector<Term> terms_;
  std::vector<Origin> origins_;
  std::vector<AtomId> ids_;
  uint32_t atoms_ = 0;
  BudgetAttachment budget_;
};

/// Columnar buffer of fixed-width binding rows (one row = the images of
/// one rule's variables, unbound slots holding the UnboundTerm sentinel).
/// Each discovery unit writes its homomorphisms into one of these instead
/// of per-trigger Binding vectors. Retained capacity is charged to an
/// attached budget with the HeadBlock ratchet.
class BindingSegment {
 public:
  BindingSegment() = default;
  BindingSegment(const BindingSegment&) = delete;
  BindingSegment& operator=(const BindingSegment&) = delete;

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
    budget_.ChargeUpTo(capacity_bytes());
  }

  const Term* row(uint64_t r) const { return terms_.data() + r * width_; }

  void Clear() {
    terms_.clear();
    rows_ = 0;
  }

  /// Bytes of heap capacity currently retained. Clear() keeps capacity,
  /// so this is a high-water figure by design.
  uint64_t capacity_bytes() const { return terms_.capacity() * sizeof(Term); }

  /// Same contract as HeadBlock::SetMemoryBudget.
  void SetMemoryBudget(MemoryBudget* budget) {
    budget_.Reset(budget);
    budget_.ChargeUpTo(capacity_bytes());
  }

 private:
  std::vector<Term> terms_;
  uint32_t width_ = 0;
  uint64_t rows_ = 0;
  BudgetAttachment budget_;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_BATCH_APPLY_H_
