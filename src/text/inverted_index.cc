#include "text/inverted_index.h"

#include <algorithm>

#include "common/logging.h"
#include "text/tokenizer.h"

namespace kwsdbg {

namespace {
bool PostingLess(const Posting& a, const Posting& b) {
  if (a.table_id != b.table_id) return a.table_id < b.table_id;
  if (a.row != b.row) return a.row < b.row;
  return a.column < b.column;
}
}  // namespace

InvertedIndex InvertedIndex::Build(const Database& db) {
  InvertedIndex index;
  for (const std::string& name : db.TableNames()) {
    uint32_t tid = static_cast<uint32_t>(index.table_names_.size());
    index.table_names_.push_back(name);
    index.table_ids_.emplace(name, tid);
    const Table* table = db.FindTable(name);
    KWSDBG_CHECK(table != nullptr)
        << "database catalog lists unknown table '" << name << "'";
    const std::vector<size_t> text_cols = table->schema().TextColumnIndices();
    if (text_cols.empty()) continue;
    for (size_t row = 0; row < table->num_rows(); ++row) {
      for (size_t col : text_cols) {
        const Value& v = table->at(row, col);
        if (v.is_null()) continue;
        for (const std::string& term : TokenizeUnique(v.AsString())) {
          index.entries_[term].postings.push_back(
              Posting{tid, static_cast<uint32_t>(row),
                      static_cast<uint32_t>(col)});
        }
      }
    }
  }
  index.Finalize();
  return index;
}

void InvertedIndex::Finalize() {
  dict_terms_.clear();
  dict_terms_.reserve(entries_.size());
  for (const auto& [term, entry] : entries_) dict_terms_.push_back(term);
  std::sort(dict_terms_.begin(), dict_terms_.end());

  dict_blob_.clear();
  dict_starts_.clear();
  dict_starts_.reserve(dict_terms_.size());
  dict_masks_.assign(dict_terms_.size(), 0);
  profile_.assign(dict_terms_.size(), {});
  dict_postings_.assign(dict_terms_.size(), nullptr);
  num_postings_ = 0;

  for (uint32_t id = 0; id < dict_terms_.size(); ++id) {
    dict_starts_.push_back(dict_blob_.size());
    dict_blob_ += dict_terms_[id];
    dict_blob_ += '\n';

    const Entry& e = entries_.at(dict_terms_[id]);
    dict_postings_[id] = &e.postings;
    num_postings_ += e.postings.size();

    // Build attaches postings in (table, row, column) ascending order, so
    // one pass with consecutive dedupe yields exact distinct-row counts.
    auto& prof = profile_[id];
    uint32_t last_tid = kNoTable;
    uint32_t last_row = 0;
    for (const Posting& p : e.postings) {
      if (p.table_id < 64) dict_masks_[id] |= (1ull << p.table_id);
      if (p.table_id == last_tid && p.row == last_row) continue;
      if (p.table_id != last_tid) prof.push_back({p.table_id, 0});
      ++prof.back().second;
      last_tid = p.table_id;
      last_row = p.row;
    }
  }
  // Term ids may have shifted: any cache keyed by term id must refresh.
  ++version_;
}

uint32_t InvertedIndex::DictIdOf(const std::string& term) const {
  auto it = std::lower_bound(dict_terms_.begin(), dict_terms_.end(), term);
  if (it == dict_terms_.end() || *it != term) {
    return static_cast<uint32_t>(dict_terms_.size());
  }
  return static_cast<uint32_t>(it - dict_terms_.begin());
}

std::vector<std::string> InvertedIndex::TablesContaining(
    const std::string& term) const {
  std::vector<std::string> out;
  uint32_t id = DictIdOf(term);
  if (id >= dict_terms_.size()) return out;
  for (const auto& [tid, rows] : profile_[id]) {
    out.push_back(table_names_[tid]);
  }
  return out;
}

const std::vector<Posting>& InvertedIndex::PostingsFor(
    const std::string& term) const {
  if (store_ == nullptr) {
    auto it = entries_.find(term);
    return it == entries_.end() ? empty_ : it->second.postings;
  }
  uint32_t id = DictIdOf(term);
  return id >= dict_terms_.size() ? empty_ : PostingsForTermId(id);
}

std::vector<uint32_t> InvertedIndex::TermIdsContaining(
    const std::string& infix) const {
  std::vector<uint32_t> out;
  if (infix.empty()) return out;
  // Terms never contain '\n' (they are lower-cased alphanumeric runs), so a
  // needle with one can't match — and without one, a blob match can't span
  // the separator between two terms.
  if (infix.find('\n') != std::string::npos) return out;
  size_t pos = dict_blob_.find(infix);
  while (pos != std::string::npos) {
    // The matching term is the one whose start is the last <= pos.
    auto it = std::upper_bound(dict_starts_.begin(), dict_starts_.end(), pos);
    uint32_t id = static_cast<uint32_t>(it - dict_starts_.begin() - 1);
    out.push_back(id);
    // Skip to the next term: further matches inside this term are dupes.
    size_t next_start = id + 1 < dict_starts_.size()
                            ? dict_starts_[id + 1]
                            : std::string::npos;
    if (next_start == std::string::npos) break;
    pos = dict_blob_.find(infix, next_start);
  }
  return out;
}

std::vector<const std::vector<Posting>*> InvertedIndex::PostingListsContaining(
    const std::string& infix) const {
  KWSDBG_CHECK(store_ == nullptr)
      << "PostingListsContaining on a spilled index: fetched lists are not "
         "simultaneously resident; use TermIdsContaining + PostingsForTermId";
  std::vector<const std::vector<Posting>*> out;
  for (uint32_t id : TermIdsContaining(infix)) {
    out.push_back(dict_postings_[id]);
  }
  return out;
}

const std::vector<Posting>& InvertedIndex::PostingsForTermId(
    uint32_t term_id) const {
  KWSDBG_CHECK(term_id < dict_terms_.size())
      << "term id " << term_id << " out of range";
  if (store_ == nullptr) return *dict_postings_[term_id];
  return store_->Fetch(term_id);
}

const std::string& InvertedIndex::TermOfId(uint32_t term_id) const {
  KWSDBG_CHECK(term_id < dict_terms_.size())
      << "term id " << term_id << " out of range";
  return dict_terms_[term_id];
}

size_t InvertedIndex::ProfileRowCount(uint32_t term_id,
                                      uint32_t table_id) const {
  if (term_id >= profile_.size()) return 0;
  for (const auto& [tid, rows] : profile_[term_id]) {
    if (tid == table_id) return rows;
  }
  return 0;
}

size_t InvertedIndex::EstimatedInfixRows(const std::string& infix,
                                         const std::string& table) const {
  uint32_t table_id = TableIdOf(table);
  if (table_id == kNoTable) return 0;
  size_t rows = 0;
  for (uint32_t id : TermIdsContaining(infix)) {
    rows += ProfileRowCount(id, table_id);
  }
  return rows;
}

Status InvertedIndex::SpillToDisk(const std::string& dir,
                                  size_t cache_lists) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition("inverted index is already spilled");
  }
  KWSDBG_ASSIGN_OR_RETURN(store_,
                          PostingStore::Create(dir, dict_postings_,
                                               cache_lists));
  // Dictionary, masks, and profile stay; the payload goes.
  entries_.clear();
  dict_postings_.clear();
  return Status::OK();
}

PostingIoStats InvertedIndex::io_stats() const {
  return store_ == nullptr ? PostingIoStats{} : store_->stats();
}

uint32_t InvertedIndex::TableIdOf(const std::string& table) const {
  auto it = table_ids_.find(table);
  return it == table_ids_.end() ? kNoTable : it->second;
}

bool InvertedIndex::Contains(const std::string& term) const {
  // A term whose last posting goes leaves the dictionary (see
  // RemoveOccurrence), so every dictionary term occurs somewhere.
  return DictIdOf(term) < dict_terms_.size();
}

bool InvertedIndex::TableContains(const std::string& term,
                                  const std::string& table) const {
  uint32_t id = DictIdOf(term);
  if (id >= dict_terms_.size()) return false;
  auto tid_it = table_ids_.find(table);
  if (tid_it == table_ids_.end()) return false;
  const uint32_t tid = tid_it->second;
  if (tid < 64) return (dict_masks_[id] >> tid) & 1;
  return ProfileRowCount(id, tid) > 0;
}

void InvertedIndex::BumpProfile(uint32_t id, uint32_t tid, int delta) {
  auto& prof = profile_[id];
  auto it = std::lower_bound(
      prof.begin(), prof.end(), tid,
      [](const std::pair<uint32_t, uint32_t>& pr, uint32_t t) {
        return pr.first < t;
      });
  if (delta > 0) {
    if (it == prof.end() || it->first != tid) {
      prof.insert(it, {tid, 1});
    } else {
      ++it->second;
    }
    if (tid < 64) dict_masks_[id] |= (uint64_t{1} << tid);
    return;
  }
  KWSDBG_CHECK(it != prof.end() && it->first == tid && it->second > 0)
      << "profile underflow for term '" << dict_terms_[id] << "' table "
      << tid;
  if (--it->second == 0) {
    prof.erase(it);
    if (tid < 64) dict_masks_[id] &= ~(uint64_t{1} << tid);
  }
}

Status InvertedIndex::AddOccurrence(const std::string& term, uint32_t tid,
                                    uint32_t row, uint32_t col,
                                    bool* needs_finalize) {
  const Posting p{tid, row, col};
  auto [it, created] = entries_.try_emplace(term);
  auto& posts = it->second.postings;
  const uint32_t id = DictIdOf(term);
  const bool new_term = id >= dict_terms_.size();
  bool first_in_row = false;
  if (!new_term) {
    auto lo = std::lower_bound(posts.begin(), posts.end(),
                               Posting{tid, row, 0}, PostingLess);
    first_in_row = lo == posts.end() || lo->table_id != tid ||
                   lo->row != row;
  }
  auto pos = std::lower_bound(posts.begin(), posts.end(), p, PostingLess);
  if (pos != posts.end() && *pos == p) {
    return Status::FailedPrecondition("duplicate posting insert");
  }
  posts.insert(pos, p);
  ++num_postings_;
  if (new_term) {
    // Vocabulary grew: the sorted dictionary, masks, and profile must be
    // rebuilt (term ids shift). The caller batches this per mutation.
    *needs_finalize = true;
    return Status::OK();
  }
  if (first_in_row) BumpProfile(id, tid, +1);
  return Status::OK();
}

void InvertedIndex::RemoveOccurrence(const std::string& term, uint32_t tid,
                                     uint32_t row, uint32_t col,
                                     bool* needs_finalize) {
  const Posting p{tid, row, col};
  auto it = entries_.find(term);
  KWSDBG_CHECK(it != entries_.end())
      << "remove of unindexed term '" << term << "'";
  auto& posts = it->second.postings;
  auto pos = std::lower_bound(posts.begin(), posts.end(), p, PostingLess);
  KWSDBG_CHECK(pos != posts.end() && *pos == p)
      << "remove of absent posting for term '" << term << "'";
  posts.erase(pos);
  --num_postings_;
  if (posts.empty()) {
    // The term left the vocabulary; a fresh rebuild would not have it, so
    // drop the entry and re-finalize the dictionary.
    entries_.erase(it);
    *needs_finalize = true;
    return;
  }
  auto lo = std::lower_bound(posts.begin(), posts.end(),
                             Posting{tid, row, 0}, PostingLess);
  const bool last_in_row = lo == posts.end() || lo->table_id != tid ||
                           lo->row != row;
  const uint32_t id = DictIdOf(term);
  if (last_in_row && id < dict_terms_.size()) BumpProfile(id, tid, -1);
}

Status InvertedIndex::RefuseIfSpilled(const char* call) const {
  if (store_ == nullptr) return Status::OK();
  return Status::FailedPrecondition(std::string(call) +
                                    " on a spilled index: it is read-only");
}

StatusOr<size_t> InvertedIndex::ApplyRowInsert(const Table& table,
                                               uint32_t row) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("ApplyRowInsert"));
  const uint32_t tid = TableIdOf(table.name());
  if (tid == kNoTable) {
    return Status::NotFound("table '" + table.name() + "' is not indexed");
  }
  size_t patches = 0;
  bool needs_finalize = false;
  for (size_t col : table.schema().TextColumnIndices()) {
    // Copy: on a spilled table the reference points into an evictable frame.
    const Value v = table.at(row, col);
    if (v.is_null()) continue;
    for (const std::string& term : TokenizeUnique(v.AsString())) {
      KWSDBG_RETURN_NOT_OK(AddOccurrence(
          term, tid, row, static_cast<uint32_t>(col), &needs_finalize));
      ++patches;
    }
  }
  if (needs_finalize) Finalize();
  return patches;
}

StatusOr<size_t> InvertedIndex::ApplyRowDelete(const Table& table,
                                               uint32_t row) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("ApplyRowDelete"));
  const uint32_t tid = TableIdOf(table.name());
  if (tid == kNoTable) {
    return Status::NotFound("table '" + table.name() + "' is not indexed");
  }
  size_t patches = 0;
  bool needs_finalize = false;
  for (size_t col : table.schema().TextColumnIndices()) {
    const Value v = table.at(row, col);
    if (v.is_null()) continue;
    for (const std::string& term : TokenizeUnique(v.AsString())) {
      RemoveOccurrence(term, tid, row, static_cast<uint32_t>(col),
                       &needs_finalize);
      ++patches;
    }
  }
  if (needs_finalize) Finalize();
  return patches;
}

StatusOr<size_t> InvertedIndex::ApplyCellUpdate(const Table& table,
                                                uint32_t row, size_t col,
                                                const Value& old_value) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("ApplyCellUpdate"));
  const uint32_t tid = TableIdOf(table.name());
  if (tid == kNoTable) {
    return Status::NotFound("table '" + table.name() + "' is not indexed");
  }
  std::vector<std::string> old_terms;
  if (!old_value.is_null()) old_terms = TokenizeUnique(old_value.AsString());
  std::vector<std::string> new_terms;
  const Value nv = table.at(row, col);
  if (!nv.is_null()) new_terms = TokenizeUnique(nv.AsString());
  std::sort(old_terms.begin(), old_terms.end());
  std::sort(new_terms.begin(), new_terms.end());
  std::vector<std::string> removed;
  std::set_difference(old_terms.begin(), old_terms.end(), new_terms.begin(),
                      new_terms.end(), std::back_inserter(removed));
  std::vector<std::string> added;
  std::set_difference(new_terms.begin(), new_terms.end(), old_terms.begin(),
                      old_terms.end(), std::back_inserter(added));
  size_t patches = 0;
  bool needs_finalize = false;
  for (const std::string& term : removed) {
    RemoveOccurrence(term, tid, row, static_cast<uint32_t>(col),
                     &needs_finalize);
    ++patches;
  }
  for (const std::string& term : added) {
    KWSDBG_RETURN_NOT_OK(AddOccurrence(
        term, tid, row, static_cast<uint32_t>(col), &needs_finalize));
    ++patches;
  }
  if (needs_finalize) Finalize();
  return patches;
}

Status InvertedIndex::RemapRows(const std::string& table,
                                const std::vector<uint32_t>& remap) {
  KWSDBG_RETURN_NOT_OK(RefuseIfSpilled("RemapRows"));
  const uint32_t tid = TableIdOf(table);
  if (tid == kNoTable) {
    return Status::NotFound("table '" + table + "' is not indexed");
  }
  // Deleted rows were blanked before compaction, so no posting references a
  // kDeletedRow slot; survivors keep their relative order, so every list
  // stays sorted and the profile's distinct-row counts are unchanged.
  for (auto& [term, entry] : entries_) {
    for (Posting& p : entry.postings) {
      if (p.table_id != tid) continue;
      KWSDBG_CHECK(p.row < remap.size() && remap[p.row] != kDeletedRow)
          << "posting for term '" << term << "' references compacted row "
          << p.row << " of table '" << table << "'";
      p.row = remap[p.row];
    }
  }
  return Status::OK();
}

size_t InvertedIndex::RowFrequency(const std::string& term,
                                   const std::string& table) const {
  uint32_t id = DictIdOf(term);
  if (id >= dict_terms_.size()) return 0;
  uint32_t tid = TableIdOf(table);
  if (tid == kNoTable) return 0;
  return ProfileRowCount(id, tid);
}

}  // namespace kwsdbg
