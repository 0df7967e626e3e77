#ifndef GCHASE_CHASE_TRIGGER_KEYS_H_
#define GCHASE_CHASE_TRIGGER_KEYS_H_

#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/memory_budget.h"
#include "model/term.h"
#include "model/tgd.h"

namespace gchase {

/// The set of one rule's discovered trigger keys: a flat open-addressing
/// table over fixed-width keys.
///
/// A key is the images of the rule's key variables (every universal
/// variable for the oblivious chase, the frontier otherwise), read
/// straight out of a binding row, so a table never sees the rule id and
/// every key has the same width. Key words live back to back in one
/// `uint32_t` arena, in insertion order. Each slot is one `uint64_t`:
/// the hash's upper 32 bits as a tag and the key's arena index + 1 in
/// the lower 32 (0 = empty). A probe compares full key words only when
/// the tags match. Max load 1/2, power-of-two capacity, linear probing.
///
/// Inserting a key allocates nothing once Reserve() has made room: the
/// merge reserves a unit's row count up front, then hashes its rows in
/// small batches and prefetches their slots (Hash, Prefetch, Insert). A
/// rehash walks the arena in index order, rehashing each key and
/// prefetching a few slots ahead. A table that never gets a key never
/// allocates.
class TriggerKeyTable {
 public:
  TriggerKeyTable() = default;
  TriggerKeyTable(const TriggerKeyTable&) = delete;
  TriggerKeyTable& operator=(const TriggerKeyTable&) = delete;

  /// Sets which binding-row positions make up a key (set once, before
  /// the first insert). An empty list is a width-0 key: the table then
  /// holds at most one key.
  void SetKeyVariables(std::vector<VarId> vars);
  const std::vector<VarId>& key_variables() const { return vars_; }

  /// Number of distinct keys inserted.
  uint64_t size() const { return size_; }

  /// Hash of the key in binding row `row` (one term per rule variable).
  uint64_t Hash(const Term* row) const {
    uint64_t h = kHashSeed;
    for (VarId v : vars_) h = MixWord(h, row[v].raw());
    return Finish(h);
  }

  /// Hints the cache about the home slot of a key with hash `hash`.
  void Prefetch(uint64_t hash) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[hash & mask()]);
  }

  /// Makes room for `extra` more keys, so the next `extra` inserts
  /// neither rehash nor reallocate (a width-0 table makes room for one
  /// key at most). Costs nothing when `extra` is 0 or the room is
  /// already there.
  void Reserve(uint64_t extra);

  /// Inserts the key of `row` (hash from Hash(row)). Returns true if it
  /// was new, false if the table already held it.
  bool Insert(const Term* row, uint64_t hash) {
    if (room_ == 0) Reserve(1);
    uint64_t* slot = Find(row, hash);
    if (*slot != 0) return false;
    GCHASE_CHECK_MSG(size_ < kMaxKeys, "trigger-key table holds 2^32-1 keys");
    *slot = (hash & kTagMask) | (size_ + 1);
    for (VarId v : vars_) arena_.push_back(row[v].raw());
    ++size_;
    --room_;
    return true;
  }

  /// True if the key of `row` has been inserted.
  bool Contains(const Term* row) const {
    if (slots_.empty()) return false;
    return *Find(row, Hash(row)) != 0;
  }

  /// Bytes of heap capacity retained by the arena and the slots.
  uint64_t capacity_bytes() const {
    return arena_.capacity() * sizeof(uint32_t) +
           slots_.capacity() * sizeof(uint64_t);
  }

  /// Same contract as HeadBlock::SetMemoryBudget: the retained capacity
  /// is charged as it grows and released on re-attach or destruction.
  void SetMemoryBudget(MemoryBudget* budget) {
    budget_.Reset(budget);
    budget_.ChargeUpTo(capacity_bytes());
  }

 private:
  static constexpr uint64_t kTagMask = 0xffffffff00000000ULL;
  static constexpr uint64_t kMaxKeys = 0xffffffffULL;
  static constexpr uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

  static uint64_t MixWord(uint64_t h, uint32_t word) {
    h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 29);
  }
  static uint64_t Finish(uint64_t h) {
    h = (h ^ (h >> 32)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 29);
  }

  uint64_t mask() const { return slots_.size() - 1; }

  /// The arena words of the key with index `index`.
  const uint32_t* KeyWords(uint64_t index) const {
    return arena_.data() + index * vars_.size();
  }

  /// The slot holding the key of `row`, or the empty slot where it would
  /// go. Requires a non-empty slot array.
  uint64_t* Find(const Term* row, uint64_t hash) {
    return const_cast<uint64_t*>(
        static_cast<const TriggerKeyTable*>(this)->Find(row, hash));
  }
  const uint64_t* Find(const Term* row, uint64_t hash) const {
    const uint64_t m = mask();
    for (uint64_t i = hash & m;; i = (i + 1) & m) {
      const uint64_t slot = slots_[i];
      if (slot == 0) return &slots_[i];
      if (((slot ^ hash) & kTagMask) == 0 && KeyEquals(slot, row)) {
        return &slots_[i];
      }
    }
  }

  bool KeyEquals(uint64_t slot, const Term* row) const {
    const uint32_t* key = KeyWords((slot & ~kTagMask) - 1);
    for (std::size_t i = 0; i < vars_.size(); ++i) {
      if (key[i] != row[vars_[i]].raw()) return false;
    }
    return true;
  }

  /// Rebuilds the slot array at `capacity` slots from the arena.
  void Rehash(uint64_t capacity);

  std::vector<VarId> vars_;
  std::vector<uint32_t> arena_;
  std::vector<uint64_t> slots_;
  uint64_t size_ = 0;
  /// Inserts left before the slots or the arena must grow.
  uint64_t room_ = 0;
  BudgetAttachment budget_;
};

}  // namespace gchase

#endif  // GCHASE_CHASE_TRIGGER_KEYS_H_
