#include "storage/bulk_load.h"

#include <cctype>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "obs/phase.h"

namespace gchase {

namespace {

/// Rows between budget polls: cheap enough to keep the overshoot within
/// one geometric column-growth step, rare enough to stay off the profile.
constexpr uint64_t kBudgetPollRows = 1024;

Status LineError(uint64_t line, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                 message);
}

/// Shared per-row state of both loaders: predicate -> table resolution
/// with a one-entry cache (fact files are typically grouped by
/// predicate, so the common case is a pointer compare, not a hash probe),
/// declared-schema validation, and the budget poll.
class RowSink {
 public:
  RowSink(InMemoryEdb* edb, const BulkLoadOptions& options)
      : edb_(edb), options_(options) {}

  /// Resolves the table for (predicate, arity), validating arity against
  /// the declared schema and prior rows. Errors carry `line`.
  Status ResolveTable(std::string_view predicate, uint32_t arity,
                      uint64_t line, uint32_t* table) {
    if (predicate == cached_name_ && arity == cached_arity_) {
      *table = cached_table_;
      return Status::Ok();
    }
    if (options_.schema != nullptr) {
      std::optional<PredicateId> declared = options_.schema->Find(predicate);
      if (declared.has_value() &&
          options_.schema->arity(*declared) != arity) {
        return LineError(
            line, "predicate '" + std::string(predicate) +
                      "' declared with arity " +
                      std::to_string(options_.schema->arity(*declared)) +
                      ", row has arity " + std::to_string(arity));
      }
    }
    StatusOr<uint32_t> resolved = edb_->GetOrAddTable(predicate, arity);
    if (!resolved.ok()) return LineError(line, resolved.status().message());
    cached_name_ = std::string(predicate);
    cached_arity_ = arity;
    cached_table_ = *resolved;
    *table = *resolved;
    return Status::Ok();
  }

  /// True when the budget poll says the load must stop.
  bool BudgetTripped() {
    if (options_.budget == nullptr) return false;
    if (++rows_since_poll_ < kBudgetPollRows) return false;
    rows_since_poll_ = 0;
    return options_.budget->Exceeded();
  }

 private:
  InMemoryEdb* edb_;
  const BulkLoadOptions& options_;
  std::string cached_name_;
  uint32_t cached_arity_ = 0xffffffffu;
  uint32_t cached_table_ = 0;
  uint64_t rows_since_poll_ = 0;
};

Status ParseCsvInto(std::string_view text, const BulkLoadOptions& options,
                    InMemoryEdb* edb) {
  // Rows are split and appended in batches: split kBatchRows rows into
  // field views, intern every value field of the batch with one
  // InternTermBatch call (hash-ahead + prefetch — the dominant load
  // cost), then resolve and append row by row. Within a batch the fields
  // still intern in input order, so the dictionary ids are identical to
  // the one-at-a-time path.
  constexpr std::size_t kBatchRows = 64;
  struct PendingRow {
    std::string_view predicate;
    uint32_t arity;
    uint64_t line;
  };
  RowSink sink(edb, options);
  PendingRow pending[kBatchRows];
  std::vector<std::string_view> fields;
  std::vector<uint32_t> ids;
  std::size_t batched = 0;
  uint64_t line_number = 0;
  uint64_t rows = 0;
  bool budget_tripped = false;

  auto flush = [&]() -> Status {
    PhaseScope batch_scope(Phase::kStorageLoadBatch);
    ids.resize(fields.size());
    if (!fields.empty() &&
        !edb->InternTermBatch(fields.data(), ids.data(), fields.size())) {
      return Status::ResourceExhausted(
          "dictionary full: more than 2^30 distinct constants");
    }
    const uint32_t* row_ids = ids.data();
    for (std::size_t r = 0; r < batched; ++r) {
      uint32_t table = 0;
      Status resolved = sink.ResolveTable(pending[r].predicate,
                                          pending[r].arity, pending[r].line,
                                          &table);
      if (!resolved.ok()) return resolved;
      edb->AppendRow(table, row_ids);
      row_ids += pending[r].arity;
      ++rows;
      if (sink.BudgetTripped()) {
        budget_tripped = true;
        break;
      }
    }
    batched = 0;
    fields.clear();
    return Status::Ok();
  };

  const char* cursor = text.data();
  const char* const end = text.data() + text.size();
  while (cursor < end && !budget_tripped) {
    ++line_number;
    const char* eol = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    const char* line_end = eol != nullptr ? eol : end;
    if (line_end > cursor && line_end[-1] == '\r') --line_end;
    std::string_view line(cursor,
                          static_cast<std::size_t>(line_end - cursor));
    cursor = eol != nullptr ? eol + 1 : end;
    if (line.empty() || line[0] == '#') continue;

    // Split on ','. The first field is the predicate; the rest queue for
    // interning.
    std::size_t field_start = 0;
    std::string_view predicate;
    uint32_t arity = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i < line.size() && line[i] != ',') continue;
      std::string_view field = line.substr(field_start, i - field_start);
      if (field.empty()) {
        return LineError(line_number, field_start == 0
                                          ? "empty predicate name"
                                          : "empty value field");
      }
      if (field_start == 0) {
        predicate = field;
      } else {
        fields.push_back(field);
        ++arity;
      }
      field_start = i + 1;
    }
    pending[batched] = PendingRow{predicate, arity, line_number};
    if (++batched == kBatchRows) {
      Status flushed = flush();
      if (!flushed.ok()) return flushed;
    }
  }
  if (!budget_tripped) {
    Status flushed = flush();
    if (!flushed.ok()) return flushed;
  }
  edb->mutable_load_stats()->rows = rows;
  edb->mutable_load_stats()->memory_exceeded = budget_tripped;
  return Status::Ok();
}

/// DLGP fact scanner: identifiers, numbers and 'quoted strings' as
/// arguments, '%' comments, '.' fact terminators. Anything that smells
/// like a rule or EGD ('->', '=') is rejected — the full parser owns
/// those.
Status ParseDlgpInto(std::string_view text, const BulkLoadOptions& options,
                     InMemoryEdb* edb) {
  RowSink sink(edb, options);
  std::vector<uint32_t> ids;
  std::size_t i = 0;
  uint64_t line = 1;
  uint64_t rows = 0;
  const std::size_t n = text.size();
  auto skip_space = [&] {
    while (i < n) {
      if (text[i] == '\n') {
        ++line;
        ++i;
      } else if (std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      } else if (text[i] == '%') {
        while (i < n && text[i] != '\n') ++i;
      } else {
        break;
      }
    }
  };
  auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (true) {
    skip_space();
    if (i >= n) break;
    // Predicate name.
    if (!is_ident(text[i])) {
      return LineError(line, std::string("unexpected character '") +
                                 text[i] + "' (facts only)");
    }
    const std::size_t name_start = i;
    while (i < n && is_ident(text[i])) ++i;
    std::string_view predicate = text.substr(name_start, i - name_start);
    skip_space();
    if (i < n && (text[i] == '-' || text[i] == '=')) {
      return LineError(line,
                       "rules and EGDs are not allowed in a bulk fact "
                       "file; use ParseProgram");
    }
    if (i >= n || text[i] != '(') {
      return LineError(line, "expected '(' after predicate '" +
                                 std::string(predicate) + "'");
    }
    ++i;  // '('
    ids.clear();
    skip_space();
    if (i < n && text[i] == ')') {
      ++i;  // zero-ary fact
    } else {
      while (true) {
        skip_space();
        std::string_view value;
        if (i < n && text[i] == '\'') {
          const std::size_t value_start = ++i;
          while (i < n && text[i] != '\'') {
            if (text[i] == '\n') ++line;
            ++i;
          }
          if (i >= n) return LineError(line, "unterminated quoted string");
          value = text.substr(value_start, i - value_start);
          ++i;  // closing quote
        } else {
          const std::size_t value_start = i;
          while (i < n && is_ident(text[i])) ++i;
          value = text.substr(value_start, i - value_start);
          if (value.empty()) {
            return LineError(line, "expected a constant argument");
          }
          if (std::isupper(static_cast<unsigned char>(value[0])) ||
              value[0] == '_') {
            return LineError(line, "variable '" + std::string(value) +
                                       "' in a fact (facts must be ground)");
          }
        }
        uint32_t id = 0;
        if (!edb->InternTerm(value, &id)) {
          return Status::ResourceExhausted(
              "dictionary full: more than 2^30 distinct constants");
        }
        ids.push_back(id);
        skip_space();
        if (i < n && text[i] == ',') {
          ++i;
          continue;
        }
        if (i < n && text[i] == ')') {
          ++i;
          break;
        }
        return LineError(line, "expected ',' or ')' in argument list");
      }
    }
    skip_space();
    if (i < n && (text[i] == '-' || text[i] == '=')) {
      return LineError(line,
                       "rules and EGDs are not allowed in a bulk fact "
                       "file; use ParseProgram");
    }
    if (i >= n || text[i] != '.') {
      return LineError(line, "expected '.' after fact");
    }
    ++i;  // '.'
    uint32_t table = 0;
    Status resolved = sink.ResolveTable(
        predicate, static_cast<uint32_t>(ids.size()), line, &table);
    if (!resolved.ok()) return resolved;
    edb->AppendRow(table, ids.data());
    ++rows;
    if (sink.BudgetTripped()) {
      edb->mutable_load_stats()->rows = rows;
      edb->mutable_load_stats()->memory_exceeded = true;
      return Status::Ok();
    }
  }
  edb->mutable_load_stats()->rows = rows;
  return Status::Ok();
}

using ParseFn = Status (*)(std::string_view, const BulkLoadOptions&,
                           InMemoryEdb*);

StatusOr<std::unique_ptr<InMemoryEdb>> LoadFacts(
    std::string_view text, const BulkLoadOptions& options, ParseFn parse,
    Phase phase) {
  auto edb = std::make_unique<InMemoryEdb>();
  EdbLoadStats* stats = edb->mutable_load_stats();
  {
    PhaseScope load(phase, text.size(), &stats->seconds);
    edb->SetMemoryBudget(options.budget);
    Status parsed = parse(text, options, edb.get());
    if (!parsed.ok()) return parsed;
  }
  stats->input_bytes = text.size();
  return edb;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return Status::NotFound("cannot stat " + path);
  }
  std::fseek(file, 0, SEEK_SET);
  std::string text(static_cast<std::size_t>(size), '\0');
  const std::size_t read =
      size > 0 ? std::fread(text.data(), 1, text.size(), file) : 0;
  std::fclose(file);
  if (read != text.size()) {
    return Status::NotFound("short read on " + path);
  }
  return text;
}

}  // namespace

StatusOr<std::unique_ptr<InMemoryEdb>> LoadCsvFacts(
    std::string_view text, const BulkLoadOptions& options) {
  return LoadFacts(text, options, &ParseCsvInto, Phase::kStorageBulkLoadCsv);
}

StatusOr<std::unique_ptr<InMemoryEdb>> LoadCsvFactsFile(
    const std::string& path, const BulkLoadOptions& options) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return LoadCsvFacts(*text, options);
}

StatusOr<std::unique_ptr<InMemoryEdb>> LoadDlgpFacts(
    std::string_view text, const BulkLoadOptions& options) {
  return LoadFacts(text, options, &ParseDlgpInto, Phase::kStorageBulkLoadDlgp);
}

StatusOr<std::unique_ptr<InMemoryEdb>> LoadDlgpFactsFile(
    const std::string& path, const BulkLoadOptions& options) {
  StatusOr<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return LoadDlgpFacts(*text, options);
}

}  // namespace gchase
