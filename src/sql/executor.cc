#include "sql/executor.h"

#include <algorithm>
#include <functional>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "sql/like_matcher.h"
#include "text/tokenizer.h"

namespace kwsdbg {

namespace {

/// Per-query execution state prepared from the query + database.
struct PreparedVertex {
  const Table* table = nullptr;
  bool has_keyword = false;
  std::string keyword;      // lower-cased
  size_t candidate_count = 0;
};

/// A join constraint from the perspective of one vertex.
struct VertexConstraint {
  uint16_t other;          // the other vertex
  size_t own_column;       // column index in this vertex's table
  size_t other_column;     // column index in the other vertex's table
};

/// Everything Execute/Explain need, resolved once per query.
struct PreparedQuery {
  std::vector<PreparedVertex> vertices;
  std::vector<std::vector<VertexConstraint>> constraints;
  std::vector<std::vector<std::pair<size_t, const Value*>>> selections;
  std::vector<std::vector<std::pair<size_t, const std::string*>>> likes;
  std::vector<uint16_t> order;
  std::vector<bool> order_connected;  // order[i] joined to a prior instance?
};

/// Per-vertex candidate rows for one query. Only a vertex with a per-row
/// filter is materialized; one without stays "full" (every row passes
/// trivially) and is reached through join-index probes or a table scan.
struct VertexCandidates {
  bool materialized = false;
  std::vector<uint32_t> rows;   // ascending
  std::vector<uint8_t> bitmap;  // sized num_rows; valid iff materialized
};

/// Adds exec_millis on every exit path, including error returns — the
/// counters must not drift on invalid queries.
struct ExecTimeGuard {
  Timer timer;
  double* acc;
  explicit ExecTimeGuard(double* a) : acc(a) {}
  ~ExecTimeGuard() { *acc += timer.ElapsedMillis(); }
};

/// Harvests the out-of-core I/O this query caused as deltas of the global
/// storage/index counters, on every exit path (like ExecTimeGuard).
struct StorageIoGuard {
  const Database* db;
  const InvertedIndex* index;
  ExecutorStats* stats;
  StorageStats before;
  PostingIoStats posting_before;
  StorageIoGuard(const Database* d, const InvertedIndex* i, ExecutorStats* s)
      : db(d), index(i), stats(s), before(d->storage_stats()),
        posting_before(i != nullptr ? i->io_stats() : PostingIoStats{}) {}
  ~StorageIoGuard() {
    const StorageStats now = db->storage_stats();
    stats->page_hits += now.page_hits - before.page_hits;
    stats->page_reads += now.page_reads - before.page_reads;
    stats->page_evictions += now.page_evictions - before.page_evictions;
    if (index != nullptr) {
      stats->posting_reads +=
          index->io_stats().posting_reads - posting_before.posting_reads;
    }
  }
};

}  // namespace

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  size_t header_width = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) {
      out += " | ";
      header_width += 3;
    }
    out += columns[i];
    header_width += columns[i].size();
  }
  out += "\n";
  out += std::string(std::min<size_t>(header_width, 120), '-');
  out += "\n";
  size_t shown = 0;
  for (const Tuple& row : rows) {
    if (max_rows != 0 && shown++ >= max_rows) {
      out += "... (" + std::to_string(rows.size() - max_rows) +
             " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      out += row[i].ToString();
    }
    out += "\n";
  }
  out += "(";
  out += std::to_string(rows.size());
  out += " rows)\n";
  return out;
}

bool Executor::IndexServable(const std::string& keyword) const {
  if (text_index_ == nullptr || !options_.use_text_index) return false;
  // Exactness requires the keyword to be one maximal alphanumeric run: then
  // any case-insensitive '%keyword%' hit lies inside a single token, and
  // the dictionary scan over indexed terms finds exactly those rows.
  const std::vector<std::string> tokens = Tokenize(keyword);
  return tokens.size() == 1 && tokens[0] == keyword;
}

const std::vector<uint32_t>& Executor::InfixTermIds(
    const std::string& keyword) {
  auto it = infix_cache_.find(keyword);
  if (it != infix_cache_.end()) return it->second;
  return infix_cache_
      .emplace(keyword, text_index_->TermIdsContaining(keyword))
      .first->second;
}

const Executor::KeywordMatches& Executor::GetKeywordMatches(
    const Table* table, const std::string& keyword) {
  auto key = std::make_pair(table, keyword);
  auto it = keyword_cache_.find(key);
  if (it != keyword_cache_.end()) return it->second;
  KeywordMatches matches;
  // Marks matching rows while the set is built; only `rows` is cached.
  std::vector<uint8_t> bitmap(table->num_rows(), 0);
  uint32_t tid = IndexServable(keyword) ? text_index_->TableIdOf(table->name())
                                        : InvertedIndex::kNoTable;
  // Degraded mode: a text-index fault (injected, or a future real lookup
  // failure) falls back to the LIKE scan — same rows, more work, no error.
  if (tid != InvertedIndex::kNoTable &&
      FaultPointFires("executor.text_index")) {
    tid = InvertedIndex::kNoTable;
    ++stats_.index_fallbacks;
  }
  if (tid != InvertedIndex::kNoTable) {
    // Posting-list path: union the lists of every term containing the
    // keyword, restricted to this table. Lists are resolved one term id at
    // a time and fully consumed before the next fetch — the contract that
    // keeps references valid when the index serves them from disk.
    ++stats_.posting_hits;
    for (uint32_t term_id : InfixTermIds(keyword)) {
      // Profile-guided skip: the term has no postings in this table, so the
      // fetch (a disk read when spilled) would contribute nothing.
      if (text_index_->ProfileRowCount(term_id, tid) == 0) continue;
      for (const Posting& p : text_index_->PostingsForTermId(term_id)) {
        if (p.table_id != tid) continue;
        if (!bitmap[p.row]) {
          bitmap[p.row] = 1;
          ++matches.count;
        }
      }
    }
  } else {
    // Scan fallback: LIKE '%keyword%' over every text column.
    ++stats_.scan_fallbacks;
    const std::vector<size_t> text_cols = table->schema().TextColumnIndices();
    for (size_t row = 0; row < table->num_rows(); ++row) {
      for (size_t col : text_cols) {
        const Value& v = table->at(row, col);
        if (v.is_null()) continue;
        if (ContainsCaseInsensitive(v.AsString(), keyword)) {
          bitmap[row] = 1;
          ++matches.count;
          break;
        }
      }
    }
  }
  matches.rows.reserve(matches.count);
  for (size_t row = 0; row < bitmap.size(); ++row) {
    if (bitmap[row]) matches.rows.push_back(static_cast<uint32_t>(row));
  }
  return keyword_cache_.emplace(std::move(key), std::move(matches))
      .first->second;
}

const FlatRowIndex& Executor::GetFlatIndex(const Table* table,
                                           size_t column) {
  if (options_.shared_flat_indexes != nullptr) {
    // Service-shared tier: the build cost is charged to whichever session
    // triggered the build; every other worker session probes for free.
    bool built = false;
    const FlatRowIndex& index = options_.shared_flat_indexes->GetOrBuild(
        table, column, cache_epoch_, &built);
    if (built) {
      ++stats_.index_builds;
      stats_.index_build_millis += index.stats().build_millis;
      stats_.arena_bytes += index.stats().arena_bytes;
    }
    return index;
  }
  const size_t before = flat_indexes_.num_indexes();
  const FlatRowIndex& index = flat_indexes_.GetOrBuild(table, column);
  if (flat_indexes_.num_indexes() != before) {
    ++stats_.index_builds;
    stats_.index_build_millis += index.stats().build_millis;
    stats_.arena_bytes += index.stats().arena_bytes;
  }
  return index;
}

RowSpan Executor::ProbeJoinIndex(const Table* table, size_t column,
                                 const Value& v) {
  ++stats_.flat_probes;
  return GetFlatIndex(table, column).Lookup(v);
}

void Executor::ClearCaches() {
  flat_indexes_.Clear();
  keyword_cache_.clear();
  infix_cache_.clear();
  table_cache_epochs_.clear();
}

void Executor::RevalidateCaches(const JoinNetworkQuery& query) {
  // Session caches (join indexes, keyword match sets) describe one database
  // state; a mutation + BumpEpoch() between queries makes them stale, so a
  // long-lived session (e.g. a service worker) drops them here instead of
  // serving rows that no longer exist.
  if (db_->epoch() != cache_epoch_) {
    ClearCaches();
    cache_epoch_ = db_->epoch();
  }
  if (text_index_ != nullptr && text_index_->version() != index_version_) {
    // A vocabulary change re-finalized the dictionary: cached term ids are
    // meaningless (row match sets keyed by table stay valid — the mutated
    // table's are dropped below via its data epoch).
    infix_cache_.clear();
    index_version_ = text_index_->version();
  }
  // Relation-scoped invalidation (live writes): a LiveMutator bumps only the
  // written table's data epoch, so drop only that table's match sets and
  // join indexes — every other table's caches stay warm. Must run before
  // PrepareQuery, whose candidate counting already reads the caches.
  for (const QueryVertex& qv : query.vertices) {
    const Table* t = db_->FindTable(qv.table);
    if (t == nullptr) continue;  // Validate() in PrepareQuery reports it.
    auto [it, inserted] = table_cache_epochs_.try_emplace(t, t->data_epoch());
    if (!inserted && it->second != t->data_epoch()) {
      for (auto kit = keyword_cache_.begin(); kit != keyword_cache_.end();) {
        if (kit->first.first == t) {
          kit = keyword_cache_.erase(kit);
        } else {
          ++kit;
        }
      }
      flat_indexes_.EraseTable(t);
      it->second = t->data_epoch();
    }
  }
}

namespace {

/// Chooses the instance order: start at the smallest candidate set, then
/// repeatedly take the connected unplaced instance with the fewest
/// candidates (disconnected queries fall back to the globally smallest —
/// a cross product, which the KWS-S system never generates but the shell
/// may).
void ChooseOrder(PreparedQuery* pq) {
  const size_t n = pq->vertices.size();
  std::vector<bool> placed(n, false);
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (pq->vertices[i].candidate_count <
        pq->vertices[first].candidate_count) {
      first = i;
    }
  }
  pq->order.push_back(static_cast<uint16_t>(first));
  pq->order_connected.push_back(false);
  placed[first] = true;
  while (pq->order.size() < n) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      bool connected = false;
      for (const VertexConstraint& vc : pq->constraints[i]) {
        if (placed[vc.other]) {
          connected = true;
          break;
        }
      }
      const bool better =
          best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           pq->vertices[i].candidate_count <
               pq->vertices[best].candidate_count);
      if (better) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    pq->order.push_back(static_cast<uint16_t>(best));
    pq->order_connected.push_back(best_connected);
    placed[best] = true;
  }
}

/// Resolves names to indexes, computes candidate counts, and picks the
/// instance order. `keyword_count` reports how many rows of a table match a
/// keyword (backed by the executor's match-set cache).
StatusOr<PreparedQuery> PrepareQuery(
    const JoinNetworkQuery& query, const Database& db,
    const std::function<size_t(const Table*, const std::string&)>&
        keyword_count) {
  KWSDBG_RETURN_NOT_OK(query.Validate(db));
  const size_t n = query.vertices.size();
  PreparedQuery pq;
  pq.vertices.resize(n);
  pq.constraints.resize(n);
  pq.selections.resize(n);
  pq.likes.resize(n);
  for (size_t i = 0; i < n; ++i) {
    PreparedVertex& pv = pq.vertices[i];
    pv.table = db.FindTable(query.vertices[i].table);
    // Non-null: Validate() above resolved every vertex table via GetTable.
    KWSDBG_CHECK(pv.table != nullptr);

    if (!query.vertices[i].keyword.empty()) {
      pv.has_keyword = true;
      pv.keyword = ToLower(query.vertices[i].keyword);
      pv.candidate_count = keyword_count(pv.table, pv.keyword);
    } else {
      pv.candidate_count = pv.table->num_rows();
    }
  }
  for (const QueryJoin& j : query.joins) {
    KWSDBG_ASSIGN_OR_RETURN(
        size_t lcol,
        pq.vertices[j.left].table->schema().ColumnIndex(j.left_column));
    KWSDBG_ASSIGN_OR_RETURN(
        size_t rcol,
        pq.vertices[j.right].table->schema().ColumnIndex(j.right_column));
    pq.constraints[j.left].push_back(VertexConstraint{j.right, lcol, rcol});
    pq.constraints[j.right].push_back(VertexConstraint{j.left, rcol, lcol});
  }
  for (const QuerySelection& sel : query.selections) {
    KWSDBG_ASSIGN_OR_RETURN(
        size_t col,
        pq.vertices[sel.vertex].table->schema().ColumnIndex(sel.column));
    pq.selections[sel.vertex].emplace_back(col, &sel.value);
  }
  for (const QueryLikeSelection& like : query.like_selections) {
    KWSDBG_ASSIGN_OR_RETURN(
        size_t col,
        pq.vertices[like.vertex].table->schema().ColumnIndex(like.column));
    pq.likes[like.vertex].emplace_back(col, &like.pattern);
  }
  ChooseOrder(&pq);
  return pq;
}

}  // namespace

StatusOr<bool> Executor::RunJoin(const JoinNetworkQuery& query, size_t limit,
                                 ResultSet* out) {
  ++stats_.queries_executed;
  ExecTimeGuard time_guard(&stats_.exec_millis);
  StorageIoGuard io_guard(db_, text_index_, &stats_);
  // Out-of-core mode: some table (or the index) serves from disk. Two
  // behavioral changes hang off this flag — `const Value&` references that
  // straddle an unbounded index build are copied, and candidate sourcing
  // runs most-selective-first — both no-ops for resident databases, keeping
  // the in-memory hot path byte-identical to the previous engine.
  spill_mode_ =
      db_->AnySpilled() || (text_index_ != nullptr && text_index_->spilled());
  RevalidateCaches(query);
  // Deadline polling: once at entry (cheap rejection of work already past
  // its budget) and every kCancelCheckStride probed rows inside the
  // backtracking loop — the only place a single query's work is unbounded.
  constexpr size_t kCancelCheckStride = 1024;
  // Batched probe pipeline: windows of kPrefetchWindow probe keys are
  // hashed and their buckets prefetched before the window drains, engaged
  // only on loops with at least kBatchMinProbes candidates — below that the
  // window never leaves L1 anyway.
  constexpr size_t kPrefetchWindow = 16;
  constexpr size_t kBatchMinProbes = 32;
  auto deadline_fired = [this] {
    return options_.cancellation != nullptr && options_.cancellation->Expired();
  };
  if (deadline_fired()) {
    return Status::DeadlineExceeded("query cancelled before execution");
  }
  auto keyword_count = [this](const Table* table,
                              const std::string& kw) -> size_t {
    // Spilled index: plan from the RAM-resident selectivity profile instead
    // of materializing the match set (which costs posting I/O). The profile
    // sum is an upper bound — exact when zero, which is what the fast-reject
    // below relies on; the true set is only materialized for the vertices
    // that survive, cheapest first.
    if (spill_mode_ && text_index_ != nullptr && text_index_->spilled() &&
        options_.use_text_index && IndexServable(kw)) {
      return text_index_->EstimatedInfixRows(kw, table->name());
    }
    return GetKeywordMatches(table, kw).count;
  };
  KWSDBG_ASSIGN_OR_RETURN(PreparedQuery pq,
                          PrepareQuery(query, *db_, keyword_count));
  const size_t n = pq.vertices.size();

  if (out != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      for (const Column& col : pq.vertices[i].table->schema().columns()) {
        out->columns.push_back(query.vertices[i].alias + "." + col.name);
      }
    }
  }

  // Fast reject: a bound instance with zero matching rows.
  for (const PreparedVertex& pv : pq.vertices) {
    if (pv.candidate_count == 0) return false;
  }

  // --- Stage 1: candidate sourcing ---------------------------------------
  // Materialize the candidate rows of every vertex with any per-row filter
  // (keyword containment, constant selections, column LIKEs); unfiltered
  // vertices stay "full".
  std::vector<VertexCandidates> cand(n);
  // Selectivity-first sourcing: under spill, materialize the cheapest
  // vertex (by profile estimate) first, so a network killed by an empty
  // filter dies on the least posting/page I/O. Resident databases keep
  // vertex order — their match sets were already built during planning, so
  // reordering would change nothing but is kept off to leave the in-memory
  // engine untouched.
  std::vector<uint16_t> source_order(n);
  for (size_t v = 0; v < n; ++v) source_order[v] = static_cast<uint16_t>(v);
  if (spill_mode_) {
    std::stable_sort(source_order.begin(), source_order.end(),
                     [&](uint16_t a, uint16_t b) {
                       return pq.vertices[a].candidate_count <
                              pq.vertices[b].candidate_count;
                     });
  }
  for (uint16_t v : source_order) {
    const PreparedVertex& pv = pq.vertices[v];
    const bool filtered =
        pv.has_keyword || !pq.selections[v].empty() || !pq.likes[v].empty();
    if (!filtered) continue;
    // Table/row access is about to scan this vertex's table.
    KWSDBG_FAULT_POINT("storage.table.read");
    VertexCandidates& c = cand[v];
    c.materialized = true;
    c.bitmap.assign(pv.table->num_rows(), 0);
    auto residual_ok = [&](uint32_t row) {
      for (const auto& [col, value] : pq.selections[v]) {
        if (!pv.table->at(row, col).SqlEquals(*value)) return false;
      }
      for (const auto& [col, pattern] : pq.likes[v]) {
        const Value& cell = pv.table->at(row, col);
        if (cell.is_null() || !LikeMatch(*pattern, cell.AsString())) {
          return false;
        }
      }
      return true;
    };
    if (pv.has_keyword) {
      for (uint32_t row : GetKeywordMatches(pv.table, pv.keyword).rows) {
        if (!residual_ok(row)) continue;
        c.bitmap[row] = 1;
        c.rows.push_back(row);
      }
    } else {
      const uint32_t num_rows = static_cast<uint32_t>(pv.table->num_rows());
      for (uint32_t row = 0; row < num_rows; ++row) {
        if (pv.table->deleted(row)) continue;  // tombstoned rows are gone
        if (!residual_ok(row)) continue;
        c.bitmap[row] = 1;
        c.rows.push_back(row);
      }
    }
    if (c.rows.empty()) return false;  // a filter matched nothing
  }

  if (deadline_fired()) {
    return Status::DeadlineExceeded("query cancelled after candidate sourcing");
  }
  KWSDBG_FAULT_POINT("executor.join.probe");

  // --- Stage 2: backtracking join over the chosen order ------------------
  // Every multi-vertex join probes, and may build, a join-column index.
  if (n > 1) KWSDBG_FAULT_POINT("executor.index.build");
  std::vector<uint32_t> assignment(n, 0);
  std::vector<bool> assigned(n, false);
  bool found = false;

  auto emit = [&]() {
    Tuple row;
    for (size_t i = 0; i < n; ++i) {
      const Tuple& src = pq.vertices[i].table->row(assignment[i]);
      row.insert(row.end(), src.begin(), src.end());
    }
    out->rows.push_back(std::move(row));
    ++stats_.rows_output;
  };

  // Checks all constraints of `v` against already-assigned vertices except
  // the specific one used for the index probe (`skip_constraint` is an
  // index into pq.constraints[v], or -1). Skipping by constraint — not by
  // the probed vertex — keeps every predicate of a composite or parallel
  // edge enforced.
  auto check_constraints = [&](size_t v, uint32_t row, int skip_constraint) {
    const std::vector<VertexConstraint>& vcs = pq.constraints[v];
    for (size_t ci = 0; ci < vcs.size(); ++ci) {
      if (static_cast<int>(ci) == skip_constraint) continue;
      const VertexConstraint& vc = vcs[ci];
      if (!assigned[vc.other]) continue;
      const Value& own = pq.vertices[v].table->at(row, vc.own_column);
      const Value& other = pq.vertices[vc.other].table->at(
          assignment[vc.other], vc.other_column);
      if (!own.SqlEquals(other)) return false;
    }
    return true;
  };

  // Iterative depth-first search to avoid recursion-depth concerns and to
  // allow clean early exit on `limit` / the first existence witness.
  struct Frame {
    RowSpan candidates;           // probe/candidate rows (use_candidates)
    bool use_candidates = false;  // false: enumerate the whole table
    uint32_t next_pos = 0;        // position in candidates/rows
    // Batched child-probe prefetch: set when the next depth will index-probe
    // on a key column of this frame's table, so every candidate row here
    // determines one upcoming bucket — prefetched a window ahead.
    const FlatRowIndex* child_index = nullptr;
    size_t child_key_col = 0;
    uint32_t prefetch_pos = 0;
  };
  std::vector<Frame> stack(n);
  // Index into pq.constraints[v] of the constraint the frame's index probe
  // satisfied (-1 = no probe).
  std::vector<int> probe_constraint(n, -1);
  size_t depth = 0;
  bool done = false;

  auto init_frame = [&](size_t d) {
    const uint16_t v = pq.order[d];
    Frame& f = stack[d];
    f.next_pos = 0;
    f.candidates = RowSpan{};
    f.use_candidates = false;
    f.child_index = nullptr;
    f.prefetch_pos = 0;
    probe_constraint[d] = -1;
    // Prefer an index probe on a constraint to an assigned vertex.
    const std::vector<VertexConstraint>& vcs = pq.constraints[v];
    for (size_t ci = 0; ci < vcs.size(); ++ci) {
      const VertexConstraint& vc = vcs[ci];
      if (!assigned[vc.other]) continue;
      if (spill_mode_) {
        // The probe may lazily build an index over this vertex's table — an
        // unbounded scan that can evict the page frame a reference into the
        // neighbor's table points at. Copy the key first.
        const Value probe = pq.vertices[vc.other].table->at(
            assignment[vc.other], vc.other_column);
        f.candidates = ProbeJoinIndex(pq.vertices[v].table, vc.own_column,
                                      probe);
      } else {
        const Value& probe = pq.vertices[vc.other].table->at(
            assignment[vc.other], vc.other_column);
        f.candidates = ProbeJoinIndex(pq.vertices[v].table, vc.own_column,
                                      probe);
      }
      f.use_candidates = true;
      probe_constraint[d] = static_cast<int>(ci);
      break;
    }
    // No assigned neighbor (root or disconnected component): enumerate the
    // materialized candidate list instead of scanning the table.
    if (!f.use_candidates && cand[v].materialized) {
      f.candidates = RowSpan::Of(cand[v].rows);
      f.use_candidates = true;
    }
    const size_t count = f.use_candidates
                             ? f.candidates.size()
                             : pq.vertices[v].table->num_rows();
    if (d + 1 < n && count >= kBatchMinProbes) {
      // The next depth's probe constraint is deterministic: init_frame(d+1)
      // picks the first constraint of order[d+1] whose other side lies in
      // the prefix order[0..d]. When that other side is *this* vertex, each
      // candidate row here keys the child's index probe, so its bucket can
      // be prefetched a window ahead. (When it is an earlier vertex the key
      // is constant across this frame — nothing to pipeline.)
      const uint16_t child = pq.order[d + 1];
      for (const VertexConstraint& vc : pq.constraints[child]) {
        bool in_prefix = false;
        for (size_t k = 0; k <= d && !in_prefix; ++k) {
          in_prefix = pq.order[k] == vc.other;
        }
        if (!in_prefix) continue;
        if (vc.other == v) {
          f.child_index =
              &GetFlatIndex(pq.vertices[child].table, vc.own_column);
          f.child_key_col = vc.other_column;
        }
        break;  // first in-prefix constraint is the probe; done either way
      }
    }
  };

  init_frame(0);

  while (!done) {
    const uint16_t v = pq.order[depth];
    Frame& f = stack[depth];
    bool advanced = false;
    const size_t table_rows = pq.vertices[v].table->num_rows();
    const size_t frame_rows =
        f.use_candidates ? f.candidates.size() : table_rows;
    while (true) {
      if (f.next_pos >= frame_rows) break;
      const uint32_t row =
          f.use_candidates ? f.candidates[f.next_pos++] : f.next_pos++;
      if (f.child_index != nullptr) {
        // Keep the child-probe window kPrefetchWindow keys ahead of the
        // cursor: hash the join key of upcoming candidates and prefetch the
        // child bucket each will probe on descent.
        const bool window_open = f.prefetch_pos == 0;
        const size_t horizon =
            std::min(frame_rows, f.next_pos + kPrefetchWindow);
        while (f.prefetch_pos < horizon) {
          const uint32_t pr = f.use_candidates ? f.candidates[f.prefetch_pos]
                                               : f.prefetch_pos;
          ++f.prefetch_pos;
          // The cursor drops rows the candidate bitmap rejects before they
          // probe, so their keys are never read (a page fetch when spilled).
          if (cand[v].materialized && !cand[v].bitmap[pr]) continue;
          const Value& key =
              pq.vertices[v].table->at(pr, f.child_key_col);
          if (!key.is_null()) f.child_index->PrefetchBucket(key.Hash64());
        }
        if (window_open) ++stats_.prefetch_batches;
      }
      ++stats_.rows_probed;
      if (stats_.rows_probed % kCancelCheckStride == 0) {
        if (deadline_fired()) {
          return Status::DeadlineExceeded("query cancelled mid-probe");
        }
        KWSDBG_FAULT_POINT("executor.join.probe");
      }
      if (cand[v].materialized && !cand[v].bitmap[row]) continue;
      // Full-table enumeration sees tombstoned rows; every other source
      // (match sets, candidate lists, patched join indexes) excludes them.
      if (!f.use_candidates && pq.vertices[v].table->deleted(row)) continue;
      if (!check_constraints(v, row, probe_constraint[depth])) continue;
      assignment[v] = row;
      assigned[v] = true;
      if (depth + 1 == n) {
        found = true;
        if (out == nullptr) {  // existence mode: first witness suffices
          done = true;
          break;
        }
        emit();
        assigned[v] = false;
        if (limit != 0 && out->rows.size() >= limit) {
          done = true;
        }
        if (done) break;
        continue;  // try next candidate at this depth
      }
      ++depth;
      init_frame(depth);
      advanced = true;
      break;
    }
    if (done) break;
    if (!advanced) {
      if (depth == 0) break;
      --depth;
      assigned[pq.order[depth]] = false;
    }
  }

  return found;
}

StatusOr<ResultSet> Executor::Execute(const JoinNetworkQuery& query,
                                      size_t limit) {
  ResultSet result;
  KWSDBG_RETURN_NOT_OK(RunJoin(query, limit, &result).status());
  return result;
}

StatusOr<bool> Executor::IsNonEmpty(const JoinNetworkQuery& query) {
  ++stats_.existence_probes;
  return RunJoin(query, /*limit=*/1, /*out=*/nullptr);
}

StatusOr<std::string> Executor::Explain(const JoinNetworkQuery& query) {
  RevalidateCaches(query);
  auto keyword_count = [this](const Table* table, const std::string& kw) {
    return GetKeywordMatches(table, kw).count;
  };
  KWSDBG_ASSIGN_OR_RETURN(PreparedQuery pq,
                          PrepareQuery(query, *db_, keyword_count));
  std::string out = "plan:\n";
  for (size_t d = 0; d < pq.order.size(); ++d) {
    const uint16_t v = pq.order[d];
    const PreparedVertex& pv = pq.vertices[v];
    out += "  " + std::to_string(d + 1) + ". " + query.vertices[v].alias +
           " (" + query.vertices[v].table + ", ~" +
           std::to_string(pv.candidate_count) + " candidate rows)";
    if (d == 0) {
      if (!pv.has_keyword) {
        out += " via full scan";
      } else if (IndexServable(pv.keyword)) {
        out += " via posting lists for '" + pv.keyword + "'";
      } else {
        out += " via keyword scan '" + pv.keyword + "'";
      }
    } else if (pq.order_connected[d]) {
      out += " via index probe on a join column";
    } else {
      out += " via cross product (no join to prior instances)";
    }
    if (!pq.selections[v].empty() || !pq.likes[v].empty()) {
      out += ", +" +
             std::to_string(pq.selections[v].size() + pq.likes[v].size()) +
             " residual filter(s)";
    }
    if (d > 0 && pv.has_keyword) {
      out += ", keyword filter '" + pv.keyword + "'";
    }
    out += "\n";
  }
  return out;
}

}  // namespace kwsdbg
