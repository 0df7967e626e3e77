#ifndef GCHASE_STORAGE_EDB_H_
#define GCHASE_STORAGE_EDB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/memory_budget.h"
#include "base/status.h"
#include "model/vocabulary.h"
#include "storage/instance.h"

namespace gchase {

/// The EDB ("extensional database") layer separates *immutable input
/// facts* from the chase-derived deltas that live in an Instance. An
/// EdbDatabase is a read-only, dictionary-encoded columnar fact store:
///
///  - every distinct constant name is interned once into an EdbDictionary
///    in first-appearance order, so a fact row is a fixed-width tuple of
///    32-bit dictionary ids, not strings;
///  - each predicate's facts form one EdbTable: `arity` parallel columns
///    of dictionary ids, `rows` entries each, in input order;
///  - the whole database can be persisted as a single memory-mappable
///    snapshot file (see storage/edb_snapshot.h) and reopened zero-copy.
///
/// Chase runs seed from an EDB through SeedInstanceFromEdb, which interns
/// the dictionary into the run's Vocabulary in dictionary order and block-
/// inserts every table through Instance::TryAddBatch. Because dictionary
/// order *is* first-appearance order, the constant ids — and therefore
/// every Term, atom id and downstream chase step — are bit-identical to
/// parsing the same facts through the per-atom parser path (pinned by
/// tests/edb_test.cc and bench_e13_bulk_load).
///
/// Implementations: InMemoryEdb (the builder the bulk loaders fill; see
/// storage/bulk_load.h) and MappedEdb (a read-only view over a snapshot
/// file; see storage/edb_snapshot.h).

/// Wall time, input volume and early-stop state of whichever loader built
/// (or opened) an EdbDatabase. Carried on the database so a chase seeded
/// from it can fold the load phase into its ChaseStats.
struct EdbLoadStats {
  double seconds = 0.0;       ///< Wall time of the parse / open phase.
  uint64_t input_bytes = 0;   ///< Bytes of input consumed (file size).
  uint64_t rows = 0;          ///< Fact rows accepted into the EDB.
  /// True when a memory-budget trip stopped the load early: the EDB holds
  /// a valid prefix of the input, and a chase seeded from it surfaces
  /// ChaseOutcome::kMemoryBudgetExceeded with the partial stats intact.
  bool memory_exceeded = false;
};

/// Read-only dictionary of constant names; ids are dense, starting at 0,
/// in first-appearance order of the input stream.
class EdbDictionary {
 public:
  virtual ~EdbDictionary() = default;
  virtual uint32_t size() const = 0;
  /// The name interned under `id`. Views borrow from the dictionary's
  /// storage and stay valid for its lifetime.
  virtual std::string_view NameOf(uint32_t id) const = 0;
};

/// One predicate's facts: `arity` parallel columns of dictionary ids.
class EdbTable {
 public:
  virtual ~EdbTable() = default;
  virtual std::string_view predicate() const = 0;
  virtual uint32_t arity() const = 0;
  virtual uint64_t rows() const = 0;
  /// Column `position` (< arity): `rows()` dictionary ids in input order.
  /// May be null only when rows() == 0.
  virtual const uint32_t* column(uint32_t position) const = 0;
};

/// A complete immutable fact database: a dictionary plus one table per
/// predicate, in first-appearance order of the predicates.
class EdbDatabase {
 public:
  virtual ~EdbDatabase() = default;
  virtual const EdbDictionary& dictionary() const = 0;
  virtual uint32_t num_tables() const = 0;
  virtual const EdbTable& table(uint32_t index) const = 0;

  /// Sum of rows over all tables.
  uint64_t TotalRows() const {
    uint64_t total = 0;
    for (uint32_t t = 0; t < num_tables(); ++t) total += table(t).rows();
    return total;
  }

  const EdbLoadStats& load_stats() const { return load_stats_; }
  EdbLoadStats* mutable_load_stats() { return &load_stats_; }

 protected:
  EdbLoadStats load_stats_;
};

/// The mutable in-memory implementation the bulk loaders fill. Columns
/// grow geometrically; every growth site charges its capacity delta to an
/// attached MemoryBudget (the same level-based accounting Instance uses),
/// so a budget-governed load can stop cleanly mid-stream.
class InMemoryEdb final : public EdbDatabase {
 public:
  InMemoryEdb() = default;

  // EdbDatabase:
  const EdbDictionary& dictionary() const override { return dictionary_; }
  uint32_t num_tables() const override {
    return static_cast<uint32_t>(tables_.size());
  }
  const EdbTable& table(uint32_t index) const override {
    GCHASE_CHECK(index < tables_.size());
    return tables_[index];
  }

  /// Interns `name`, writing its dictionary id to *id. Returns false only
  /// when the dictionary is full (2^30 entries — the Term constant-index
  /// limit); the caller surfaces that as a resource error.
  bool InternTerm(std::string_view name, uint32_t* id) {
    return dictionary_.Intern(name, id, this);
  }

  /// Interns `count` names at once, writing ids[i] for names[i]. Same
  /// result as `count` InternTerm calls in order (first-appearance ids),
  /// but hashes a chunk ahead and prefetches the probe slots: at bulk-load
  /// scale the dedup table lives in DRAM, so overlapping the misses is
  /// worth ~2x over one dependent probe per field.
  bool InternTermBatch(const std::string_view* names, uint32_t* ids,
                       std::size_t count) {
    return dictionary_.InternBatch(names, ids, count, this);
  }

  /// Returns the index of the table for `predicate`/`arity`, creating it
  /// if new. Fails with kInvalidArgument when `predicate` already has a
  /// table with a different arity or `arity` exceeds kMaxArity.
  StatusOr<uint32_t> GetOrAddTable(std::string_view predicate, uint32_t arity);

  /// Appends one row (`arity` dictionary ids) to table `table_index`.
  void AppendRow(uint32_t table_index, const uint32_t* ids);

  /// Pre-sizes table `table_index` for `extra_rows` more rows.
  void ReserveRows(uint32_t table_index, uint64_t extra_rows);

  /// Attaches (or, with nullptr, detaches) a byte budget: the current
  /// footprint is charged on attach, growth deltas after, and the whole
  /// charge is released on destruction/detach. The budget must outlive
  /// this object. Enforcement stays with the caller — loaders poll
  /// budget()->Exceeded() between rows and stop early.
  void SetMemoryBudget(MemoryBudget* budget) {
    charged_.Reset(budget);
    charged_.Charge(footprint_bytes_);
  }
  MemoryBudget* budget() const { return charged_.get(); }

  /// Bytes of heap capacity retained (dictionary + columns). O(1).
  uint64_t MemoryFootprint() const { return footprint_bytes_; }

 private:
  friend class Dictionary;

  template <typename T>
  static uint64_t VectorBytes(const std::vector<T>& v) {
    return static_cast<uint64_t>(v.capacity()) * sizeof(T);
  }

  void AccountGrowth(uint64_t before_bytes, uint64_t after_bytes) {
    if (after_bytes == before_bytes) return;
    const uint64_t delta = after_bytes - before_bytes;
    footprint_bytes_ += delta;
    charged_.Charge(delta);
  }

  /// Contiguous string interner: name bytes in one blob, (offsets[i],
  /// offsets[i+1]) delimiting name i, and an open-addressing hash -> id
  /// table (power-of-two, max load 1/2, stored hashes) for dedup — the
  /// same shape as Instance's atom dedup, with byte-exact accounting and
  /// no per-entry node allocation. Doubles as the snapshot wire format.
  class Dictionary final : public EdbDictionary {
   public:
    uint32_t size() const override {
      return static_cast<uint32_t>(offsets_.size()) - 1;
    }
    std::string_view NameOf(uint32_t id) const override {
      GCHASE_CHECK(id + 1 < offsets_.size());
      return std::string_view(bytes_.data() + offsets_[id],
                              offsets_[id + 1] - offsets_[id]);
    }
    bool Intern(std::string_view name, uint32_t* id, InMemoryEdb* owner);
    bool InternBatch(const std::string_view* names, uint32_t* ids,
                     std::size_t count, InMemoryEdb* owner);

    const std::vector<uint64_t>& offsets() const { return offsets_; }
    const std::vector<char>& bytes() const { return bytes_; }

   private:
    /// Hash and id co-located in one 16-byte slot, so the batched
    /// prefetch pulls both with a single cache line — the dedup table
    /// outgrows the caches at bulk-load scale, so misses dominate
    /// intern cost.
    struct Slot {
      uint64_t hash = 0;
      uint32_t id = kEmptySlot;
      uint32_t unused = 0;
    };

    std::string_view StoredName(uint32_t id) const {
      return std::string_view(bytes_.data() + offsets_[id],
                              offsets_[id + 1] - offsets_[id]);
    }
    bool InternHashed(std::string_view name, uint64_t hash, uint32_t* id,
                      InMemoryEdb* owner);
    void Grow(InMemoryEdb* owner, std::size_t capacity);

    std::vector<uint64_t> offsets_{0};  ///< size() + 1 entries.
    std::vector<char> bytes_;
    std::vector<Slot> slots_;  ///< Power-of-two, max load 1/2.
    static constexpr uint32_t kEmptySlot = 0xffffffffu;
  };

  class Table final : public EdbTable {
   public:
    Table(std::string name, uint32_t arity)
        : name_(std::move(name)), columns_(arity) {}
    std::string_view predicate() const override { return name_; }
    uint32_t arity() const override {
      return static_cast<uint32_t>(columns_.size());
    }
    /// Stored as a plain counter, not columns_[0].size(): zero-ary
    /// predicates have no columns but still count rows.
    uint64_t rows() const override { return rows_; }
    const uint32_t* column(uint32_t position) const override {
      GCHASE_CHECK(position < columns_.size());
      return columns_[position].data();
    }

   private:
    friend class InMemoryEdb;
    std::string name_;
    std::vector<std::vector<uint32_t>> columns_;
    uint64_t rows_ = 0;
  };

  Dictionary dictionary_;
  std::vector<Table> tables_;
  /// predicate name -> index into tables_ (tables are few; rows are not).
  std::unordered_map<std::string, uint32_t> table_index_;
  uint64_t footprint_bytes_ = 0;
  BudgetAttachment charged_;
};

/// Counters from seeding an Instance out of an EdbDatabase.
struct EdbSeedStats {
  uint64_t rows = 0;            ///< Rows offered from the EDB.
  uint64_t atoms_added = 0;     ///< Distinct atoms inserted.
  uint64_t duplicate_rows = 0;  ///< Duplicate rows skipped by dedup.
  /// True when the budget denied the seed's pre-size projection: the
  /// instance holds the tables seeded before the denial, and the caller
  /// must surface kMemoryBudgetExceeded.
  bool budget_denied = false;
};

/// Seeds `instance` with every fact of `edb`: interns the full dictionary
/// into `vocabulary` in dictionary order (bit-identical constant ids to
/// the parser path), registers each table's predicate, and block-inserts
/// the rows through Instance::TryAddBatch with one up-front
/// ReserveAdditional. When `budget` is non-null the total reserve is
/// projected first; on denial the seed degrades to per-table reserves and
/// stops (stats->budget_denied) at the first table that no longer fits,
/// leaving a valid prefix. Fails with kInvalidArgument on a predicate
/// arity conflict against `vocabulary` and kInternal on a dictionary id
/// out of range (a corrupt snapshot).
Status SeedInstanceFromEdb(const EdbDatabase& edb, Vocabulary* vocabulary,
                           Instance* instance, MemoryBudget* budget,
                           EdbSeedStats* stats);

}  // namespace gchase

#endif  // GCHASE_STORAGE_EDB_H_
