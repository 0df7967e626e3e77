#include "storage/edb_snapshot.h"

#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "obs/phase.h"

#if defined(__unix__) || defined(__APPLE__)
#define GCHASE_EDB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace gchase {

namespace {

constexpr uint64_t kMagic = 0x0031424445484347ULL;  // "GCHEDB1\0" LE
constexpr uint32_t kVersion = 1;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kTocEntryBytes = 32;

uint64_t Align8(uint64_t offset) { return (offset + 7) & ~uint64_t{7}; }

struct Header {
  uint64_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t num_tables = 0;
  uint64_t num_terms = 0;
  uint64_t file_size = 0;
  uint64_t dict_offsets_pos = 0;
  uint64_t dict_bytes_pos = 0;
  uint64_t dict_bytes_len = 0;
  uint64_t toc_pos = 0;
};
static_assert(sizeof(Header) == kHeaderBytes, "snapshot header is 64 bytes");

struct TocEntry {
  uint64_t name_pos = 0;
  uint32_t name_len = 0;
  uint32_t arity = 0;
  uint64_t rows = 0;
  uint64_t columns_pos = 0;
};
static_assert(sizeof(TocEntry) == kTocEntryBytes, "toc entry is 32 bytes");

/// Padded byte length of one column array (`rows` u32 values).
uint64_t ColumnBytes(uint64_t rows) { return Align8(rows * 4); }

Status WriteError(const std::string& path) {
  return Status::Internal("write failed on " + path);
}

/// A read-only EdbDatabase over a validated snapshot image — either an
/// mmap'd region or an owned aligned heap buffer. All column and
/// dictionary accessors point straight into the image.
class MappedEdb final : public EdbDatabase {
 public:
  ~MappedEdb() override {
#if GCHASE_EDB_HAVE_MMAP
    if (mapping_ != nullptr) munmap(mapping_, mapping_bytes_);
#endif
    if (charged_bytes_ != 0 && budget_ != nullptr) {
      budget_->Release(charged_bytes_);
    }
  }

  const EdbDictionary& dictionary() const override { return dictionary_; }
  uint32_t num_tables() const override {
    return static_cast<uint32_t>(tables_.size());
  }
  const EdbTable& table(uint32_t index) const override {
    GCHASE_CHECK(index < tables_.size());
    return tables_[index];
  }

  // File-local implementation detail: fields are public so the open
  // routine below can wire the views up without friend gymnastics.
  class Dictionary final : public EdbDictionary {
   public:
    uint32_t size() const override { return count_; }
    std::string_view NameOf(uint32_t id) const override {
      GCHASE_CHECK(id < count_);
      return std::string_view(bytes_ + offsets_[id],
                              offsets_[id + 1] - offsets_[id]);
    }

    const uint64_t* offsets_ = nullptr;  ///< count_ + 1 entries.
    const char* bytes_ = nullptr;
    uint32_t count_ = 0;
  };

  class Table final : public EdbTable {
   public:
    std::string_view predicate() const override { return name_; }
    uint32_t arity() const override {
      return static_cast<uint32_t>(columns_.size());
    }
    uint64_t rows() const override { return rows_; }
    const uint32_t* column(uint32_t position) const override {
      GCHASE_CHECK(position < columns_.size());
      return columns_[position];
    }

    std::string name_;
    std::vector<const uint32_t*> columns_;
    uint64_t rows_ = 0;
  };

  /// The raw image base (mapping_ or heap_buffer_.data()).
  const char* base_ = nullptr;
  void* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  /// Fallback storage when mmap is unavailable; u64-aligned so the
  /// dictionary-offset array can be addressed in place.
  std::vector<uint64_t> heap_buffer_;
  Dictionary dictionary_;
  std::vector<Table> tables_;
  MemoryBudget* budget_ = nullptr;
  uint64_t charged_bytes_ = 0;
};

}  // namespace

Status WriteEdbSnapshot(const EdbDatabase& edb, const std::string& path) {
  PhaseScope write_scope(Phase::kStorageEdbSnapshotWrite, edb.TotalRows());
  const EdbDictionary& dictionary = edb.dictionary();
  const uint32_t num_terms = dictionary.size();
  const uint32_t num_tables = edb.num_tables();

  // Lay out every section up front; the file is then written in one
  // sequential pass.
  Header header;
  header.num_tables = num_tables;
  header.num_terms = num_terms;
  header.toc_pos = kHeaderBytes;
  header.dict_offsets_pos =
      header.toc_pos + uint64_t{num_tables} * kTocEntryBytes;
  header.dict_bytes_pos =
      header.dict_offsets_pos + (uint64_t{num_terms} + 1) * 8;
  uint64_t dict_bytes_len = 0;
  for (uint32_t id = 0; id < num_terms; ++id) {
    dict_bytes_len += dictionary.NameOf(id).size();
  }
  header.dict_bytes_len = dict_bytes_len;

  std::vector<TocEntry> toc(num_tables);
  uint64_t cursor = header.dict_bytes_pos + dict_bytes_len;
  for (uint32_t t = 0; t < num_tables; ++t) {
    const EdbTable& table = edb.table(t);
    toc[t].name_pos = cursor;
    toc[t].name_len = static_cast<uint32_t>(table.predicate().size());
    toc[t].arity = table.arity();
    toc[t].rows = table.rows();
    cursor += toc[t].name_len;
  }
  cursor = Align8(cursor);
  for (uint32_t t = 0; t < num_tables; ++t) {
    toc[t].columns_pos = cursor;
    cursor += uint64_t{toc[t].arity} * ColumnBytes(toc[t].rows);
  }
  header.file_size = cursor;

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot create " + path);
  }
  uint64_t written = 0;
  auto put = [&](const void* data, std::size_t bytes) {
    written += bytes;
    return bytes == 0 || std::fwrite(data, 1, bytes, file) == bytes;
  };
  static constexpr char kZeros[8] = {0};
  auto pad_to = [&](uint64_t pos) {
    GCHASE_CHECK(pos >= written && pos - written < 8);
    return put(kZeros, static_cast<std::size_t>(pos - written));
  };
  bool ok = put(&header, sizeof(header)) &&
            put(toc.data(), toc.size() * sizeof(TocEntry));
  // Dictionary offsets + blob, re-serialized through NameOf so any
  // EdbDatabase implementation can be snapshotted.
  uint64_t name_offset = 0;
  for (uint32_t id = 0; ok && id <= num_terms; ++id) {
    ok = put(&name_offset, 8);
    if (id < num_terms) name_offset += dictionary.NameOf(id).size();
  }
  for (uint32_t id = 0; ok && id < num_terms; ++id) {
    std::string_view name = dictionary.NameOf(id);
    ok = put(name.data(), name.size());
  }
  for (uint32_t t = 0; ok && t < num_tables; ++t) {
    std::string_view name = edb.table(t).predicate();
    ok = put(name.data(), name.size());
  }
  for (uint32_t t = 0; ok && t < num_tables; ++t) {
    const EdbTable& table = edb.table(t);
    ok = pad_to(toc[t].columns_pos);
    for (uint32_t c = 0; ok && c < table.arity(); ++c) {
      ok = put(table.column(c), table.rows() * 4) &&
           put(kZeros, ColumnBytes(table.rows()) - table.rows() * 4);
    }
  }
  ok = ok && written == header.file_size;
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    return WriteError(path);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<EdbDatabase>> OpenEdbSnapshot(const std::string& path,
                                                       MemoryBudget* budget) {
  auto db = std::make_unique<MappedEdb>();
  EdbLoadStats* stats = db->mutable_load_stats();
  PhaseScope open_scope(Phase::kStorageEdbSnapshotOpen, 0, &stats->seconds);
  uint64_t file_size = 0;

#if GCHASE_EDB_HAVE_MMAP
  {
    const int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::NotFound("cannot open " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      return Status::NotFound("cannot stat " + path);
    }
    file_size = static_cast<uint64_t>(st.st_size);
    if (file_size > 0) {
      void* mapping = mmap(nullptr, static_cast<std::size_t>(file_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapping != MAP_FAILED) {
        db->mapping_ = mapping;
        db->mapping_bytes_ = static_cast<std::size_t>(file_size);
        db->base_ = static_cast<const char*>(mapping);
      }
    }
    close(fd);
  }
#endif
  if (db->base_ == nullptr) {
    // No mmap (non-POSIX, zero-length file, or a failed map): read into
    // one u64-aligned heap buffer — same image, one extra copy.
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) return Status::NotFound("cannot open " + path);
    std::fseek(file, 0, SEEK_END);
    const long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    if (size < 0) {
      std::fclose(file);
      return Status::NotFound("cannot stat " + path);
    }
    file_size = static_cast<uint64_t>(size);
    db->heap_buffer_.resize(static_cast<std::size_t>((file_size + 7) / 8));
    const std::size_t read =
        file_size > 0
            ? std::fread(db->heap_buffer_.data(), 1,
                         static_cast<std::size_t>(file_size), file)
            : 0;
    std::fclose(file);
    if (read != file_size) {
      return Status::InvalidArgument("short read on " + path);
    }
    db->base_ = reinterpret_cast<const char*>(db->heap_buffer_.data());
  }

  // Validate before trusting a single offset. Every section must lie
  // within the file and the dictionary offsets must be monotone.
  auto corrupt = [&](const std::string& detail) {
    return Status::InvalidArgument(path + ": " + detail);
  };
  if (file_size < kHeaderBytes) {
    return corrupt("truncated or empty snapshot (" +
                   std::to_string(file_size) + " bytes)");
  }
  Header header;
  std::memcpy(&header, db->base_, sizeof(header));
  if (header.magic != kMagic) return corrupt("bad magic");
  if (header.version != kVersion) {
    return corrupt("unsupported version " + std::to_string(header.version));
  }
  if (header.file_size != file_size) {
    return corrupt("recorded size " + std::to_string(header.file_size) +
                   " != actual size " + std::to_string(file_size) +
                   " (truncated?)");
  }
  if (header.num_terms >= (uint64_t{1} << 30)) {
    return corrupt("dictionary too large for 30-bit term ids");
  }
  auto in_file = [&](uint64_t pos, uint64_t bytes) {
    return pos <= file_size && bytes <= file_size - pos;
  };
  if (!in_file(header.toc_pos,
               uint64_t{header.num_tables} * kTocEntryBytes) ||
      !in_file(header.dict_offsets_pos, (header.num_terms + 1) * 8) ||
      !in_file(header.dict_bytes_pos, header.dict_bytes_len) ||
      (header.toc_pos & 7) != 0 || (header.dict_offsets_pos & 7) != 0) {
    return corrupt("section out of bounds");
  }

  const uint64_t* offsets =
      reinterpret_cast<const uint64_t*>(db->base_ + header.dict_offsets_pos);
  if (offsets[0] != 0 || offsets[header.num_terms] != header.dict_bytes_len) {
    return corrupt("dictionary offsets do not span the name blob");
  }
  for (uint64_t id = 0; id < header.num_terms; ++id) {
    if (offsets[id] > offsets[id + 1]) {
      return corrupt("dictionary offsets not monotone at id " +
                     std::to_string(id));
    }
  }
  db->dictionary_.offsets_ = offsets;
  db->dictionary_.bytes_ = db->base_ + header.dict_bytes_pos;
  db->dictionary_.count_ = static_cast<uint32_t>(header.num_terms);

  db->tables_.resize(header.num_tables);
  for (uint32_t t = 0; t < header.num_tables; ++t) {
    TocEntry entry;
    std::memcpy(&entry, db->base_ + header.toc_pos + t * kTocEntryBytes,
                sizeof(entry));
    if (!in_file(entry.name_pos, entry.name_len) || entry.arity > kMaxArity ||
        entry.rows > file_size ||  // pre-empts ColumnBytes overflow
        (entry.columns_pos & 7) != 0 ||
        !in_file(entry.columns_pos,
                 uint64_t{entry.arity} * ColumnBytes(entry.rows))) {
      return corrupt("table " + std::to_string(t) + " out of bounds");
    }
    MappedEdb::Table& table = db->tables_[t];
    table.name_.assign(db->base_ + entry.name_pos, entry.name_len);
    table.rows_ = entry.rows;
    table.columns_.resize(entry.arity);
    for (uint32_t c = 0; c < entry.arity; ++c) {
      const uint32_t* column = reinterpret_cast<const uint32_t*>(
          db->base_ + entry.columns_pos + c * ColumnBytes(entry.rows));
      table.columns_[c] = column;
      for (uint64_t r = 0; r < entry.rows; ++r) {
        if (column[r] >= header.num_terms) {
          return corrupt("table " + std::to_string(t) +
                         " references dictionary id out of range");
        }
      }
    }
  }

  if (budget != nullptr) {
    budget->Charge(file_size);
    db->budget_ = budget;
    db->charged_bytes_ = file_size;
  }
  stats->input_bytes = file_size;
  stats->rows = db->TotalRows();
  return StatusOr<std::unique_ptr<EdbDatabase>>(std::move(db));
}

}  // namespace gchase
