// Inverted index over the text attributes of a database, playing the role the
// paper assigns to Lucene: map a keyword to the relations (and tuples) that
// contain it (Sec. 2.3, Phase 1).
//
// After Build the index finalizes a sorted term dictionary (a contiguous
// '\n'-separated blob scanned once per infix lookup) and a per-term
// selectivity profile: for every (term, table), the exact number of distinct
// rows containing the term. Dictionary and profile always stay RAM-resident;
// `SpillToDisk` additionally moves the posting payload to a PostingStore so
// only an LRU cache of decoded lists stays in memory — the ursadb
// NgramProfile split. The executor uses the profile to order probes
// most-selective-first before touching any posting I/O.
#ifndef KWSDBG_TEXT_INVERTED_INDEX_H_
#define KWSDBG_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/database.h"
#include "text/posting.h"
#include "text/posting_store.h"

namespace kwsdbg {

/// Term -> postings map built from every kString column of every table.
/// Built once, then maintainable under live writes: ApplyRowInsert /
/// ApplyRowDelete / ApplyCellUpdate patch the posting lists, the selectivity
/// profile, and the table masks in place so the index always equals a
/// from-scratch rebuild (the incremental-vs-rebuild parity oracle in
/// tests/text/incremental_index_test.cc). A full rebuild remains valid too.
///
/// A spilled index is read-only: the four maintenance calls return
/// kFailedPrecondition and change nothing. It is also NOT thread-safe
/// (posting fetches mutate an LRU cache through const methods); it is a
/// single-session artifact. Concurrent services keep their index resident.
class InvertedIndex {
 public:
  /// Sentinel returned by TableIdOf for tables absent from the index.
  static constexpr uint32_t kNoTable = 0xFFFFFFFFu;

  /// Builds the index over all tables of `db`. The Database must outlive
  /// nothing here — the index copies what it needs (table names only).
  static InvertedIndex Build(const Database& db);

  /// Names of the tables that contain `term` in some text attribute.
  /// Matching is exact on the tokenized term (lower-cased).
  std::vector<std::string> TablesContaining(const std::string& term) const;

  /// All occurrences of `term`; empty if absent. On a spilled index the
  /// reference is valid only until the next posting fetch.
  const std::vector<Posting>& PostingsFor(const std::string& term) const;

  /// Posting lists of every indexed term that contains `infix` as a
  /// substring — the dictionary scan Lucene performs for `*infix*` wildcard
  /// queries. Because terms are maximal alphanumeric runs, a row of a table
  /// matches LIKE '%infix%' (case-insensitively) iff one of these lists has
  /// a posting for it, provided `infix` itself tokenizes to a single term.
  /// The returned pointers stay valid for the life of the index. Resident
  /// indexes only — spilled callers iterate TermIdsContaining +
  /// PostingsForTermId so lists can be consumed one at a time.
  std::vector<const std::vector<Posting>*> PostingListsContaining(
      const std::string& infix) const;

  /// Ids (positions in the sorted dictionary) of every term containing
  /// `infix`, via one substring scan over the dictionary blob. Works in both
  /// modes and costs no posting I/O.
  std::vector<uint32_t> TermIdsContaining(const std::string& infix) const;

  /// The posting list of a dictionary term id. Spilled: fetched through the
  /// LRU cache, reference valid only until the next fetch.
  const std::vector<Posting>& PostingsForTermId(uint32_t term_id) const;

  /// The dictionary term with this id.
  const std::string& TermOfId(uint32_t term_id) const;

  /// Profile lookup: exact distinct-row count of term `term_id` in table
  /// `table_id` (0 if absent). No posting I/O.
  size_t ProfileRowCount(uint32_t term_id, uint32_t table_id) const;

  /// Upper bound on the rows of `table` matching LIKE '%infix%': the sum of
  /// profile counts over all terms containing `infix` (a row holding two
  /// such terms is counted twice). Exact when zero — no term, no match —
  /// which is what makes profile-driven fast-rejects safe. No posting I/O.
  size_t EstimatedInfixRows(const std::string& infix,
                            const std::string& table) const;

  /// Moves the posting payload to an on-disk PostingStore under `dir` (or
  /// the system temp dir when empty), keeping dictionary + profile
  /// resident; the index is read-only after it. `cache_lists` bounds the
  /// decoded-list LRU cache.
  Status SpillToDisk(const std::string& dir = "", size_t cache_lists = 64);

  bool spilled() const { return store_ != nullptr; }

  /// Zero-initialized for a resident index.
  PostingIoStats io_stats() const;

  /// Id of `table` inside Posting::table_id space, or kNoTable.
  uint32_t TableIdOf(const std::string& table) const;

  /// True iff `term` occurs anywhere in the database.
  bool Contains(const std::string& term) const;

  /// True iff `term` occurs in the named table.
  bool TableContains(const std::string& term,
                     const std::string& table) const;

  /// Document frequency of `term` within `table` (number of rows of `table`
  /// with at least one occurrence). Used for selectivity reporting; served
  /// from the profile in O(tables-with-term).
  size_t RowFrequency(const std::string& term, const std::string& table) const;

  size_t num_terms() const { return dict_terms_.size(); }
  const std::vector<std::string>& table_names() const { return table_names_; }

  /// All indexed terms, sorted (deterministic iteration for workload
  /// generators and diagnostics).
  std::vector<std::string> Terms() const { return dict_terms_; }

  /// Total number of postings (index size indicator).
  size_t num_postings() const { return num_postings_; }

  // ---- Incremental maintenance (live writes) ----

  /// Patches the index after `table` gained row `row` (the row must already
  /// be readable). Returns the number of posting patches applied. A
  /// vocabulary-new term triggers a dictionary re-finalize (term ids shift,
  /// version() bumps — no re-tokenization). This and the three calls below
  /// return kFailedPrecondition on a spilled index.
  StatusOr<size_t> ApplyRowInsert(const Table& table, uint32_t row);

  /// Patches the index for a pending delete of `row`. Must be called while
  /// the row's old values are still readable (i.e. BEFORE
  /// Table::DeleteRow blanks them). Returns posting patches applied.
  StatusOr<size_t> ApplyRowDelete(const Table& table, uint32_t row);

  /// Patches the index after one cell changed: `old_value` is the
  /// pre-update value; the table already holds the new one.
  StatusOr<size_t> ApplyCellUpdate(const Table& table, uint32_t row,
                                   size_t col, const Value& old_value);

  /// Rewrites this table's posting row ids after Table::Compact, using the
  /// remap it returned (old -> new; kDeletedRow entries must have no
  /// postings left, which holds because deletes blank the row first).
  /// Survivor order is preserved, so lists stay sorted.
  Status RemapRows(const std::string& table,
                   const std::vector<uint32_t>& remap);

  /// Bumped whenever term ids shift (dictionary re-finalize after a
  /// vocabulary change). Term-id-keyed session caches (the executor's infix
  /// cache) compare against this.
  uint64_t version() const { return version_; }

 private:
  struct Entry {
    std::vector<Posting> postings;
  };

  /// kFailedPrecondition naming `call` if the index is spilled.
  Status RefuseIfSpilled(const char* call) const;

  /// Builds the sorted dictionary, blob, masks, and selectivity profile
  /// from entries_. Called at the end of Build and after any vocabulary
  /// change; bumps version_.
  void Finalize();

  /// Adds/removes one occurrence of a resident index, maintaining
  /// postings, profile, masks, and num_postings_. `needs_finalize` is set
  /// when the vocabulary changed. Remove on an absent posting is a checked
  /// invariant violation.
  Status AddOccurrence(const std::string& term, uint32_t tid, uint32_t row,
                       uint32_t col, bool* needs_finalize);
  void RemoveOccurrence(const std::string& term, uint32_t tid, uint32_t row,
                        uint32_t col, bool* needs_finalize);

  /// Profile count adjustment for (term id, tid): +1 / -1 distinct row.
  void BumpProfile(uint32_t id, uint32_t tid, int delta);

  /// Dictionary id of `term`, or kNoTable-style npos (= num_terms()) if
  /// absent. Binary search.
  uint32_t DictIdOf(const std::string& term) const;

  // Resident posting payload; cleared by SpillToDisk.
  std::unordered_map<std::string, Entry> entries_;

  // Dictionary + profile: always resident, indexed by sorted term id.
  std::vector<std::string> dict_terms_;
  std::string dict_blob_;            ///< '\n'-joined sorted terms.
  std::vector<size_t> dict_starts_;  ///< Offset of each term in the blob.
  std::vector<uint64_t> dict_masks_;  ///< Bit i set iff table i has the term
                                      ///< (tables beyond 64 use the profile).
  /// Per term: (table_id, distinct rows containing the term), table ids
  /// ascending. Exact counts, not estimates.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> profile_;
  std::vector<const std::vector<Posting>*> dict_postings_;  ///< Resident only.
  size_t num_postings_ = 0;

  std::vector<std::string> table_names_;
  std::unordered_map<std::string, uint32_t> table_ids_;
  std::vector<Posting> empty_;
  uint64_t version_ = 0;

  std::unique_ptr<PostingStore> store_;  ///< Non-null once spilled.
};

}  // namespace kwsdbg

#endif  // KWSDBG_TEXT_INVERTED_INDEX_H_
