#include "storage/instance.h"

#include <algorithm>
#include <unordered_set>

#include "obs/phase.h"

namespace gchase {

namespace {
const std::vector<AtomId>& EmptyIdList() {
  static const std::vector<AtomId>* const kEmpty = new std::vector<AtomId>();
  return *kEmpty;
}
}  // namespace

bool Instance::RecordEquals(AtomId id, PredicateId pred, const Term* args,
                            uint32_t arity) const {
  const AtomRecord& record = records_[id];
  if (record.predicate != pred || record.arity != arity) return false;
  const Term* stored = arena_.terms().data() + record.offset;
  for (uint32_t i = 0; i < arity; ++i) {
    if (stored[i] != args[i]) return false;
  }
  return true;
}

std::size_t Instance::DedupSlotFor(uint64_t hash, PredicateId pred,
                                   const Term* args, uint32_t arity) const {
  const std::size_t mask = dedup_ids_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (dedup_ids_[i] != kEmptySlot) {
    if (dedup_hashes_[i] == hash &&
        RecordEquals(dedup_ids_[i], pred, args, arity)) {
      return i;
    }
    i = (i + 1) & mask;
  }
  return i;
}

void Instance::GrowDedup(std::size_t want) {
  // Max load factor 1/2, power-of-two capacity. Linear-probe miss chains
  // grow as 1/(1-load)^2, and the chase's Contains traffic is miss-heavy
  // (every candidate head atom is probed before insertion) — the extra
  // 12 bytes/slot buys ~1.5-probe misses instead of ~6 at 7/10 load.
  if (!dedup_ids_.empty() && want * 2 <= dedup_ids_.size()) return;
  std::size_t capacity = dedup_ids_.empty() ? 16 : dedup_ids_.size();
  while (want * 2 > capacity) capacity *= 2;
  if (capacity == dedup_ids_.size()) return;
  // Scope only inside the actual-grow branch: the early-outs above are
  // the TryAdd fast path and must stay untimed.
  PhaseScope grow(Phase::kStorageGrowDedup, capacity);
  const uint64_t bytes_before = VectorBytes(dedup_hashes_) + VectorBytes(dedup_ids_);
  std::vector<uint64_t> old_hashes = std::move(dedup_hashes_);
  std::vector<AtomId> old_ids = std::move(dedup_ids_);
  dedup_hashes_.assign(capacity, 0);
  dedup_ids_.assign(capacity, kEmptySlot);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < old_ids.size(); ++i) {
    if (old_ids[i] == kEmptySlot) continue;
    std::size_t j = static_cast<std::size_t>(old_hashes[i]) & mask;
    while (dedup_ids_[j] != kEmptySlot) j = (j + 1) & mask;
    dedup_hashes_[j] = old_hashes[i];
    dedup_ids_[j] = old_ids[i];
  }
  AccountGrowth(bytes_before, VectorBytes(dedup_hashes_) + VectorBytes(dedup_ids_));
}

std::pair<AtomId, bool> Instance::TryAdd(const Atom& atom) {
  GCHASE_CHECK_MSG(atom.IsGround(), "instances hold ground atoms only");
  return TryAddTerms(atom.predicate, atom.args.data(), atom.arity());
}

std::pair<AtomId, bool> Instance::TryAddTerms(PredicateId pred,
                                              const Term* args,
                                              uint32_t arity) {
  const uint64_t hash = HashAtomTerms(pred, args, arity);
  GrowDedup(records_.size() + 1);
  const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
  if (dedup_ids_[slot] != kEmptySlot) return {dedup_ids_[slot], false};
  return {AppendRow(pred, args, arity, hash, slot), true};
}

AtomId Instance::AppendRow(PredicateId pred, const Term* args, uint32_t arity,
                           uint64_t hash, std::size_t slot) {
  const AtomId id = static_cast<AtomId>(records_.size());
  GCHASE_CHECK(id != kEmptySlot);
  // Every mutation below is bracketed by capacity-bytes reads so the
  // footprint (and any attached budget) tracks geometric growth exactly.
  // On the steady-state path — capacity pre-reserved by ReserveAdditional
  // or TryAddBatch — each bracket is two loads and a compare, nothing
  // more.
  uint64_t before = arena_.capacity_bytes();
  const uint32_t offset = arena_.Append(args, arity);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.push_back(AtomRecord{pred, offset, arity});
  AccountGrowth(before, VectorBytes(records_));
  dedup_hashes_[slot] = hash;
  dedup_ids_[slot] = id;

  if (pred >= by_predicate_.size()) {
    before = VectorBytes(by_predicate_);
    by_predicate_.resize(pred + 1);
    AccountGrowth(before, VectorBytes(by_predicate_));
  }
  {
    std::vector<AtomId>& list = by_predicate_[pred];
    before = VectorBytes(list);
    list.push_back(id);
    AccountGrowth(before, VectorBytes(list));
  }
  for (uint32_t pos = 0; pos < arity; ++pos) {
    bool inserted = false;
    before = position_index_.capacity_bytes();
    const uint32_t posting_slot = position_index_.FindOrInsert(
        PositionKey(pred, pos, args[pos]),
        static_cast<uint32_t>(postings_.size()), &inserted);
    AccountGrowth(before, position_index_.capacity_bytes());
    if (inserted) {
      before = VectorBytes(postings_);
      postings_.emplace_back();
      AccountGrowth(before, VectorBytes(postings_));
    }
    std::vector<AtomId>& posting = postings_[posting_slot];
    before = VectorBytes(posting);
    posting.push_back(id);
    AccountGrowth(before, VectorBytes(posting));
    ++position_entries_;
  }
  return id;
}

uint32_t Instance::TryAddBatch(PredicateId pred, const Term* terms,
                               uint32_t arity, uint32_t n, AtomId* ids) {
  if (n == 0) return 0;
  // One exact-sized growth pass for the whole block: the per-row loop
  // below never rehashes or reallocates, so a round's worth of head
  // atoms dedups at streaming speed. Duplicate rows merely leave the
  // reserved slack unused.
  GrowDedup(records_.size() + n);
  uint64_t before = arena_.capacity_bytes();
  arena_.Reserve(arena_.size() + static_cast<std::size_t>(arity) * n);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.reserve(records_.size() + n);
  AccountGrowth(before, VectorBytes(records_));
  // Worst case every argument position of every row opens a fresh index
  // key; reserving here keeps the per-row loop rehash-free end to end.
  before = position_index_.capacity_bytes();
  position_index_.Reserve(position_index_.size() +
                          static_cast<std::size_t>(arity) * n);
  AccountGrowth(before, position_index_.capacity_bytes());
  before = VectorBytes(postings_);
  postings_.reserve(postings_.size() + static_cast<std::size_t>(arity) * n);
  AccountGrowth(before, VectorBytes(postings_));
  uint32_t added = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const Term* args = terms + static_cast<std::size_t>(i) * arity;
    const uint64_t hash = HashAtomTerms(pred, args, arity);
    const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
    AtomId id = dedup_ids_[slot];
    if (id == kEmptySlot) {
      id = AppendRow(pred, args, arity, hash, slot);
      ++added;
    }
    if (ids != nullptr) ids[i] = id;
  }
  return added;
}

std::optional<AtomId> Instance::Find(const Atom& atom) const {
  return FindTerms(atom.predicate, atom.args.data(), atom.arity());
}

std::optional<AtomId> Instance::FindTerms(PredicateId pred, const Term* args,
                                          uint32_t arity) const {
  if (dedup_ids_.empty()) return std::nullopt;
  const uint64_t hash = HashAtomTerms(pred, args, arity);
  const std::size_t slot = DedupSlotFor(hash, pred, args, arity);
  if (dedup_ids_[slot] == kEmptySlot) return std::nullopt;
  return dedup_ids_[slot];
}

std::vector<Atom> Instance::MaterializeAtoms() const {
  std::vector<Atom> out;
  out.reserve(records_.size());
  for (AtomId id = 0; id < records_.size(); ++id) {
    out.push_back(atom(id).ToAtom());
  }
  return out;
}

const std::vector<AtomId>& Instance::AtomsWithPredicate(
    PredicateId pred) const {
  if (pred >= by_predicate_.size()) return EmptyIdList();
  return by_predicate_[pred];
}

uint32_t Instance::CountWithPredicateSince(PredicateId pred,
                                           AtomId watermark) const {
  const std::vector<AtomId>& ids = AtomsWithPredicate(pred);
  // Append order means the list is sorted by id.
  auto it = std::lower_bound(ids.begin(), ids.end(), watermark);
  return static_cast<uint32_t>(ids.end() - it);
}

const std::vector<AtomId>& Instance::AtomsWithTermAt(PredicateId pred,
                                                     uint32_t position,
                                                     Term term) const {
  const uint32_t slot =
      position_index_.Find(PositionKey(pred, position, term));
  if (slot == FlatIndex64::kNotFound) return EmptyIdList();
  return postings_[slot];
}

uint32_t Instance::CountNulls() const {
  std::unordered_set<uint32_t> nulls;
  for (Term t : arena_.terms()) {
    if (t.IsNull()) nulls.insert(t.index());
  }
  return static_cast<uint32_t>(nulls.size());
}

void Instance::ReserveAdditional(uint64_t extra_atoms, uint64_t extra_terms) {
  // The pre-round bulk rebuild of every index: arena, dedup table,
  // position index. This is where round-boundary rebuild time goes.
  PhaseScope reserve(Phase::kStorageReserve, extra_atoms);
  uint64_t before = arena_.capacity_bytes();
  arena_.Reserve(arena_.size() + extra_terms);
  AccountGrowth(before, arena_.capacity_bytes());
  before = VectorBytes(records_);
  records_.reserve(records_.size() + extra_atoms);
  AccountGrowth(before, VectorBytes(records_));
  GrowDedup(records_.size() + extra_atoms);
  // Worst case every new argument position opens a fresh index key.
  before = position_index_.capacity_bytes();
  position_index_.Reserve(position_index_.size() + extra_terms);
  AccountGrowth(before, position_index_.capacity_bytes());
  before = VectorBytes(postings_);
  postings_.reserve(postings_.size() + extra_terms);
  AccountGrowth(before, VectorBytes(postings_));
}

uint64_t Instance::EstimateReserveBytes(uint64_t extra_atoms,
                                        uint64_t extra_terms) const {
  // Mirrors ReserveAdditional site by site: each term is the byte delta
  // the corresponding reserve would commit right now. `vector::reserve`
  // to at most the current capacity is a no-op; the two hash tables grow
  // by their exact doubling policy (12 bytes/slot each: u64 key/hash +
  // u32 value/id).
  uint64_t extra = 0;
  const uint64_t want_terms = arena_.size() + extra_terms;
  if (want_terms > arena_.capacity()) {
    extra += (want_terms - arena_.capacity()) * sizeof(Term);
  }
  const uint64_t want_records = records_.size() + extra_atoms;
  if (want_records > records_.capacity()) {
    extra += (want_records - records_.capacity()) * sizeof(AtomRecord);
  }
  const std::size_t dedup_capacity =
      GrownDedupCapacity(records_.size() + extra_atoms);
  if (dedup_capacity > dedup_ids_.size()) {
    extra += (dedup_capacity - dedup_ids_.size()) *
             (sizeof(uint64_t) + sizeof(AtomId));
  }
  const std::size_t index_capacity =
      position_index_.CapacityFor(position_index_.size() + extra_terms);
  if (index_capacity > position_index_.capacity_slots()) {
    extra += (index_capacity - position_index_.capacity_slots()) *
             (sizeof(uint64_t) + sizeof(uint32_t));
  }
  const uint64_t want_postings = postings_.size() + extra_terms;
  if (want_postings > postings_.capacity()) {
    extra += (want_postings - postings_.capacity()) *
             sizeof(std::vector<AtomId>);
  }
  return extra;
}

}  // namespace gchase
