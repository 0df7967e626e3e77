#include "chase/trigger_keys.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace gchase {

void TriggerKeyTable::SetKeyVariables(std::vector<VarId> vars) {
  GCHASE_CHECK(size_ == 0);
  vars_ = std::move(vars);
}

void TriggerKeyTable::Reserve(uint64_t extra) {
  // A width-0 table holds at most one key, however many rows arrive.
  if (vars_.empty()) extra = std::min<uint64_t>(extra, 1 - size_);
  if (extra <= room_) return;
  const uint64_t want = size_ + extra;
  if (want * 2 > slots_.size()) {
    uint64_t capacity = slots_.empty() ? 16 : slots_.size();
    while (want * 2 > capacity) capacity *= 2;
    Rehash(capacity);
  }
  uint64_t arena_room = std::numeric_limits<uint64_t>::max();
  if (!vars_.empty()) {
    const uint64_t words = want * vars_.size();
    if (words > arena_.capacity()) {
      arena_.reserve(std::max<uint64_t>(words, 2 * arena_.capacity()));
    }
    arena_room = arena_.capacity() / vars_.size() - size_;
  }
  room_ = std::min(slots_.size() / 2 - size_, arena_room);
  budget_.ChargeUpTo(capacity_bytes());
}

void TriggerKeyTable::Rehash(uint64_t capacity) {
  // Keys are rehashed from the arena in index order; the hashes run
  // kAhead keys in front of the inserts so each home slot is prefetched
  // before it is probed.
  constexpr uint64_t kAhead = 8;
  const auto hash_of = [this](uint64_t index) {
    const uint32_t* key = KeyWords(index);
    uint64_t h = kHashSeed;
    for (std::size_t i = 0; i < vars_.size(); ++i) h = MixWord(h, key[i]);
    return Finish(h);
  };
  std::vector<uint64_t> slots(capacity, 0);
  const uint64_t m = capacity - 1;
  uint64_t ahead[kAhead];
  for (uint64_t k = 0; k < std::min(kAhead, size_); ++k) {
    ahead[k] = hash_of(k);
    __builtin_prefetch(&slots[ahead[k] & m]);
  }
  for (uint64_t k = 0; k < size_; ++k) {
    const uint64_t hash = ahead[k % kAhead];
    if (k + kAhead < size_) {
      const uint64_t next = hash_of(k + kAhead);
      ahead[k % kAhead] = next;
      __builtin_prefetch(&slots[next & m]);
    }
    uint64_t i = hash & m;
    while (slots[i] != 0) i = (i + 1) & m;
    slots[i] = (hash & kTagMask) | (k + 1);
  }
  slots_ = std::move(slots);
}

}  // namespace gchase
