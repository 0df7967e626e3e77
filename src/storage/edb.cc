#include "storage/edb.h"

#include <algorithm>
#include <cstring>

#include "base/check.h"
#include "model/term.h"
#include "obs/phase.h"

namespace gchase {

namespace {

/// Largest dictionary id a Term::Constant can carry (30 index bits).
constexpr uint32_t kMaxDictionaryIds = 1u << 30;

/// FNV-1a over 8-byte words (one multiply per word, not per byte — the
/// loader hashes every field of every row), length folded into the tail
/// word, splitmix64-finalized: the dedup table indexes with a
/// power-of-two mask, so the low bits must avalanche.
uint64_t HashName(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const char* p = name.data();
  std::size_t n = name.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * 0x100000001b3ULL;
    p += 8;
    n -= 8;
  }
  uint64_t tail = static_cast<uint64_t>(n) << 56;  // n < 8: top byte free
  if (n > 0) std::memcpy(&tail, p, n);
  h = (h ^ tail) * 0x100000001b3ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

}  // namespace

bool InMemoryEdb::Dictionary::InternHashed(std::string_view name,
                                           uint64_t hash, uint32_t* id,
                                           InMemoryEdb* owner) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(hash) & mask;
  while (slots_[slot].id != kEmptySlot) {
    if (slots_[slot].hash == hash && StoredName(slots_[slot].id) == name) {
      *id = slots_[slot].id;
      return true;
    }
    slot = (slot + 1) & mask;
  }
  const uint32_t count = size();
  if (count >= kMaxDictionaryIds) return false;
  {
    const uint64_t before = VectorBytes(bytes_) + VectorBytes(offsets_);
    bytes_.insert(bytes_.end(), name.begin(), name.end());
    offsets_.push_back(bytes_.size());
    owner->AccountGrowth(before, VectorBytes(bytes_) + VectorBytes(offsets_));
  }
  slots_[slot].hash = hash;
  slots_[slot].id = count;
  *id = count;
  return true;
}

bool InMemoryEdb::Dictionary::Intern(std::string_view name, uint32_t* id,
                                     InMemoryEdb* owner) {
  if ((static_cast<std::size_t>(size()) + 1) * 2 > slots_.size()) {
    Grow(owner, slots_.empty() ? 1024 : slots_.size() * 2);
  }
  return InternHashed(name, HashName(name), id, owner);
}

bool InMemoryEdb::Dictionary::InternBatch(const std::string_view* names,
                                          uint32_t* ids, std::size_t count,
                                          InMemoryEdb* owner) {
  // Hash a chunk, prefetch every chunk member's first probe slot, then
  // probe. The probes' cache misses overlap instead of serializing — the
  // table is tens of MB at a million constants, so a dependent
  // hash-probe-hash-probe chain pays DRAM latency per field.
  constexpr std::size_t kChunk = 64;
  uint64_t hashes[kChunk];
  std::size_t done = 0;
  while (done < count) {
    const std::size_t chunk = std::min(kChunk, count - done);
    while ((static_cast<std::size_t>(size()) + chunk) * 2 > slots_.size()) {
      Grow(owner, slots_.empty() ? 1024 : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < chunk; ++i) {
      hashes[i] = HashName(names[done + i]);
      __builtin_prefetch(&slots_[static_cast<std::size_t>(hashes[i]) & mask]);
    }
    for (std::size_t i = 0; i < chunk; ++i) {
      if (!InternHashed(names[done + i], hashes[i], &ids[done + i], owner)) {
        return false;
      }
    }
    done += chunk;
  }
  return true;
}

void InMemoryEdb::Dictionary::Grow(InMemoryEdb* owner, std::size_t capacity) {
  const uint64_t before = VectorBytes(slots_);
  std::vector<Slot> old_slots = std::move(slots_);
  slots_.assign(capacity, Slot{});
  owner->AccountGrowth(before, VectorBytes(slots_));
  const std::size_t mask = capacity - 1;
  for (const Slot& entry : old_slots) {
    if (entry.id == kEmptySlot) continue;
    std::size_t slot = static_cast<std::size_t>(entry.hash) & mask;
    while (slots_[slot].id != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

StatusOr<uint32_t> InMemoryEdb::GetOrAddTable(std::string_view predicate,
                                              uint32_t arity) {
  auto it = table_index_.find(std::string(predicate));
  if (it != table_index_.end()) {
    const Table& existing = tables_[it->second];
    if (existing.arity() != arity) {
      return Status::InvalidArgument(
          "predicate '" + std::string(predicate) + "' declared with arity " +
          std::to_string(existing.arity()) + ", row has arity " +
          std::to_string(arity));
    }
    return it->second;
  }
  if (arity > kMaxArity) {
    return Status::InvalidArgument("predicate '" + std::string(predicate) +
                                   "' exceeds the maximum arity " +
                                   std::to_string(kMaxArity));
  }
  const uint32_t index = static_cast<uint32_t>(tables_.size());
  tables_.emplace_back(std::string(predicate), arity);
  table_index_.emplace(std::string(predicate), index);
  // Approximate the map node + table header cost; the dominant storage
  // (columns, dictionary) is accounted exactly at its growth sites.
  AccountGrowth(0, sizeof(Table) + predicate.size() + 64);
  return index;
}

void InMemoryEdb::AppendRow(uint32_t table_index, const uint32_t* ids) {
  GCHASE_CHECK(table_index < tables_.size());
  Table& table = tables_[table_index];
  for (std::size_t c = 0; c < table.columns_.size(); ++c) {
    std::vector<uint32_t>& column = table.columns_[c];
    if (column.size() == column.capacity()) {
      const uint64_t before = VectorBytes(column);
      column.push_back(ids[c]);
      AccountGrowth(before, VectorBytes(column));
    } else {
      column.push_back(ids[c]);
    }
  }
  ++table.rows_;
}

void InMemoryEdb::ReserveRows(uint32_t table_index, uint64_t extra_rows) {
  GCHASE_CHECK(table_index < tables_.size());
  Table& table = tables_[table_index];
  for (std::vector<uint32_t>& column : table.columns_) {
    const uint64_t before = VectorBytes(column);
    column.reserve(column.size() + extra_rows);
    AccountGrowth(before, VectorBytes(column));
  }
}

Status SeedInstanceFromEdb(const EdbDatabase& edb, Vocabulary* vocabulary,
                           Instance* instance, MemoryBudget* budget,
                           EdbSeedStats* stats) {
  PhaseScope seed_scope(Phase::kStorageEdbSeed, edb.TotalRows());
  EdbSeedStats local;
  EdbSeedStats& out = stats != nullptr ? *stats : local;
  out = EdbSeedStats{};

  // Intern the whole dictionary up front, in dictionary order. Dictionary
  // order is first-appearance order of the original input stream, so the
  // constant ids handed out here are exactly the ids the per-atom parser
  // path would have produced — the root of the EDB/parser bit-identity
  // contract.
  const EdbDictionary& dictionary = edb.dictionary();
  std::vector<Term> term_of(dictionary.size());
  for (uint32_t id = 0; id < dictionary.size(); ++id) {
    term_of[id] = Term::Constant(vocabulary->constants.Intern(
        dictionary.NameOf(id)));
  }

  // Register every predicate (table order = first-appearance order) and
  // tally the total load for one up-front reserve.
  std::vector<PredicateId> predicate_of(edb.num_tables());
  uint64_t total_rows = 0;
  uint64_t total_terms = 0;
  for (uint32_t t = 0; t < edb.num_tables(); ++t) {
    const EdbTable& table = edb.table(t);
    StatusOr<PredicateId> predicate =
        vocabulary->schema.GetOrAdd(table.predicate(), table.arity());
    if (!predicate.ok()) return predicate.status();
    predicate_of[t] = *predicate;
    total_rows += table.rows();
    total_terms += table.rows() * table.arity();
  }

  // Reserve once for everything when the budget allows; otherwise fall
  // back to per-table reserves so the seed degrades to a valid prefix
  // instead of refusing outright.
  bool reserve_per_table = false;
  if (budget != nullptr &&
      budget->WouldExceed(
          instance->EstimateReserveBytes(total_rows, total_terms))) {
    reserve_per_table = true;
  } else {
    instance->ReserveAdditional(total_rows, total_terms);
  }

  // Row-major staging block, refilled per chunk from the columns. 64k
  // rows keeps the block cache-warm without rivaling the store itself.
  constexpr uint32_t kChunkRows = 64 * 1024;
  std::vector<Term> block;
  for (uint32_t t = 0; t < edb.num_tables(); ++t) {
    const EdbTable& table = edb.table(t);
    const uint32_t arity = table.arity();
    const uint64_t rows = table.rows();
    if (reserve_per_table) {
      if (budget->WouldExceed(
              instance->EstimateReserveBytes(rows, rows * arity))) {
        budget->NoteDenied();
        out.budget_denied = true;
        return Status::Ok();
      }
      instance->ReserveAdditional(rows, rows * arity);
    }
    if (arity == 0) {
      // Zero-ary tables carry at most one distinct fact.
      if (rows > 0) {
        auto [id, inserted] =
            instance->TryAddTerms(predicate_of[t], nullptr, 0);
        (void)id;
        out.rows += rows;
        out.atoms_added += inserted ? 1 : 0;
        out.duplicate_rows += rows - (inserted ? 1 : 0);
      }
      continue;
    }
    block.resize(static_cast<std::size_t>(std::min<uint64_t>(rows, kChunkRows)) *
                 arity);
    for (uint64_t base = 0; base < rows; base += kChunkRows) {
      const uint32_t n =
          static_cast<uint32_t>(std::min<uint64_t>(kChunkRows, rows - base));
      for (uint32_t c = 0; c < arity; ++c) {
        const uint32_t* column = table.column(c) + base;
        for (uint32_t r = 0; r < n; ++r) {
          const uint32_t dict_id = column[r];
          if (dict_id >= term_of.size()) {
            return Status::Internal(
                "EDB row references dictionary id " + std::to_string(dict_id) +
                " out of range (dictionary has " +
                std::to_string(term_of.size()) + " entries)");
          }
          block[static_cast<std::size_t>(r) * arity + c] = term_of[dict_id];
        }
      }
      const uint32_t added =
          instance->TryAddBatch(predicate_of[t], block.data(), arity, n);
      out.rows += n;
      out.atoms_added += added;
      out.duplicate_rows += n - added;
    }
  }
  return Status::Ok();
}

}  // namespace gchase
