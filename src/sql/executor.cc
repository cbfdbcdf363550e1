#include "sql/executor.h"

#include <algorithm>
#include <bit>

#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "sql/like_matcher.h"
#include "text/tokenizer.h"

namespace kwsdbg {

namespace {

/// Batched probe pipeline: windows of kPrefetchWindow probe keys are hashed
/// and their buckets prefetched before the window drains, engaged only on
/// loops with at least kBatchMinProbes candidates — below that the window
/// never leaves L1 anyway.
constexpr size_t kPrefetchWindow = 16;
constexpr size_t kBatchMinProbes = 32;
/// Window hashes are kept by position modulo this (a power of two larger
/// than the kPrefetchWindow + 1 positions hashed but not yet probed), so
/// the descent from a candidate probes with the hash its window computed.
constexpr uint32_t kHashRing = 32;
static_assert(kHashRing > kPrefetchWindow &&
              (kHashRing & (kHashRing - 1)) == 0);

/// Deadline polling stride inside the backtracking loop.
constexpr size_t kCancelCheckStride = 1024;

/// A join constraint from the perspective of one vertex.
struct VertexConstraint {
  uint16_t other;       // the other vertex
  size_t own_column;    // column index in this vertex's table
  size_t other_column;  // column index in the other vertex's table
};

/// Bit `row` of a one-bit-per-row set of `num_bits` bits.
bool TestBit(const uint64_t* bits, size_t num_bits, uint32_t row) {
  return row < num_bits && ((bits[row >> 6] >> (row & 63)) & 1) != 0;
}

/// Adds exec_millis on every exit path, including error returns — the
/// counters must not drift on invalid queries.
struct ExecTimeGuard {
  Timer timer;
  double* acc;
  explicit ExecTimeGuard(double* a) : acc(a) {}
  ~ExecTimeGuard() { *acc += timer.ElapsedMillis(); }
};

/// Harvests the out-of-core I/O this query caused as deltas of the buffer
/// pool, page file and posting store counters, on every exit path (like
/// ExecTimeGuard). Reads those counters directly: no catalog walk.
struct StorageIoGuard {
  const BufferPool* pool;
  const DiskManager* disk;
  const InvertedIndex* index;
  ExecutorStats* stats;
  BufferPoolStats pool_before;
  size_t page_reads_before;
  size_t posting_reads_before;
  StorageIoGuard(const Database* d, const InvertedIndex* i, ExecutorStats* s)
      : pool(d->buffer_pool()),
        disk(d->disk()),
        index(i),
        stats(s),
        pool_before(pool != nullptr ? pool->stats() : BufferPoolStats{}),
        page_reads_before(disk != nullptr ? disk->stats().page_reads : 0),
        posting_reads_before(i != nullptr ? i->io_stats().posting_reads : 0) {
  }
  ~StorageIoGuard() {
    if (pool != nullptr) {
      stats->page_hits += pool->stats().page_hits - pool_before.page_hits;
      stats->page_evictions +=
          pool->stats().page_evictions - pool_before.page_evictions;
    }
    if (disk != nullptr) {
      stats->page_reads += disk->stats().page_reads - page_reads_before;
    }
    if (index != nullptr) {
      stats->posting_reads +=
          index->io_stats().posting_reads - posting_reads_before;
    }
  }
};

}  // namespace

/// Everything one RunJoin or Explain resolves for its plan. Kept across
/// queries so a query allocates nothing once the buffers have grown to its
/// size; every field is reset by Prepare. Spans into cached match sets and
/// resolved index pointers are valid for the current query only.
struct Executor::JoinState {
  struct Vertex {
    const Table* table = nullptr;
    const std::string* keyword = nullptr;  // into the plan; null = free
    const KeywordMatches* matches = nullptr;  // once materialized
    size_t candidate_count = 0;
    bool residual = false;  // constant or LIKE selections on this vertex
    // A vertex with any per-row filter (keyword, residual) is sourced in
    // Stage 1: `rows` are its candidates, ascending, and `bits` (of
    // `num_bits`) their membership set. Without filters it stays "full"
    // (every row passes) and is reached through index probes or a scan.
    bool filtered = false;
    RowSpan rows;
    const uint64_t* bits = nullptr;
    size_t num_bits = 0;
    // Storage for candidates materialized under residual filters.
    std::vector<uint32_t> owned_rows;
    std::vector<uint64_t> owned_bits;

    bool Admits(uint32_t row) const {
      return !filtered || TestBit(bits, num_bits, row);
    }
  };

  /// One backtracking level of the iterative depth-first search.
  struct Frame {
    RowSpan candidates;           // probe/candidate rows (use_candidates)
    bool use_candidates = false;  // false: enumerate the whole table
    uint32_t next_pos = 0;        // position in candidates/rows
    // Batched child-probe prefetch: set when the next depth will index-probe
    // on a key column of this frame's table, so every candidate row here
    // determines one upcoming bucket — prefetched a window ahead, its hash
    // kept for the probe.
    const FlatRowIndex* child_index = nullptr;
    size_t child_key_col = 0;
    uint32_t prefetch_pos = 0;
    uint64_t window_hash[kHashRing] = {};  // by position % kHashRing
  };

  std::vector<Vertex> vertices;
  // Constraints grouped by vertex: vertex v's are
  // constraints[constraint_begin[v] .. constraint_begin[v + 1]), in join
  // order. constraint_index[c] is constraint c's probe index, resolved on
  // first use in this query.
  std::vector<VertexConstraint> constraints;
  std::vector<uint32_t> constraint_begin;
  std::vector<const FlatRowIndex*> constraint_index;
  std::vector<uint16_t> order;
  std::vector<bool> order_connected;  // order[i] joined to a prior instance?
  std::vector<uint16_t> source_order;
  std::vector<uint32_t> assignment;
  std::vector<bool> assigned;
  std::vector<Frame> stack;
  // Offset within the vertex's constraints of the constraint the frame's
  // index probe satisfied (-1 = no probe).
  std::vector<int> probe_constraint;

  /// Constraints of vertex `v`.
  const VertexConstraint* begin(size_t v) const {
    return constraints.data() + constraint_begin[v];
  }
  const VertexConstraint* end(size_t v) const {
    return constraints.data() + constraint_begin[v + 1];
  }
};

Executor::Executor(const Database* db, ExecutorOptions options)
    : db_(db), options_(options), state_(std::make_unique<JoinState>()) {}
Executor::~Executor() = default;
Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;

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
  std::unordered_map<std::string, KeywordMatches>& per_table =
      keyword_cache_[table];
  auto it = per_table.find(keyword);
  if (it != per_table.end()) return it->second;
  KeywordMatches matches;
  // The membership bitset is built first; the row list is read off it.
  matches.bits.assign((table->num_rows() + 63) / 64, 0);
  auto mark = [&matches](size_t row) {
    matches.bits[row >> 6] |= uint64_t{1} << (row & 63);
  };
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
        if (p.table_id == tid) mark(p.row);
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
          mark(row);
          break;
        }
      }
    }
  }
  size_t count = 0;
  for (uint64_t word : matches.bits) count += std::popcount(word);
  matches.rows.reserve(count);
  for (size_t w = 0; w < matches.bits.size(); ++w) {
    for (uint64_t word = matches.bits[w]; word != 0; word &= word - 1) {
      matches.rows.push_back(
          static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
  return per_table.emplace(keyword, std::move(matches)).first->second;
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

void Executor::ClearCaches() {
  flat_indexes_.Clear();
  keyword_cache_.clear();
  infix_cache_.clear();
  table_cache_epochs_.clear();
}

void Executor::RevalidateCaches(const JoinPlan& plan) {
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
  // Prepare, whose candidate counting already reads the caches.
  for (const JoinPlan::Vertex& pv : plan.vertices) {
    const Table* t = pv.table;
    auto [it, inserted] = table_cache_epochs_.try_emplace(t, t->data_epoch());
    if (!inserted && it->second != t->data_epoch()) {
      keyword_cache_.erase(t);
      flat_indexes_.EraseTable(t);
      it->second = t->data_epoch();
    }
  }
}

void Executor::Prepare(const JoinPlan& plan, bool estimate_spilled) {
  JoinState& st = *state_;
  const size_t n = plan.vertices.size();
  st.vertices.resize(n);
  for (size_t i = 0; i < n; ++i) {
    JoinState::Vertex& sv = st.vertices[i];
    const JoinPlan::Vertex& pv = plan.vertices[i];
    sv.table = pv.table;
    sv.keyword = pv.keyword.empty() ? nullptr : &pv.keyword;
    sv.matches = nullptr;
    sv.residual = false;
    sv.rows = RowSpan{};
    sv.bits = nullptr;
    sv.num_bits = 0;
    if (sv.keyword == nullptr) {
      sv.candidate_count = sv.table->num_rows();
    } else if (estimate_spilled && spill_mode_ && text_index_ != nullptr &&
               text_index_->spilled() && options_.use_text_index &&
               IndexServable(pv.keyword)) {
      // Spilled index: plan from the RAM-resident selectivity profile
      // instead of materializing the match set (which costs posting I/O).
      // The profile sum is an upper bound — exact when zero, which is what
      // RunJoin's fast reject relies on; the true set is only materialized
      // for the vertices that survive, cheapest first.
      sv.candidate_count =
          text_index_->EstimatedInfixRows(pv.keyword, sv.table->name());
    } else {
      sv.matches = &GetKeywordMatches(sv.table, pv.keyword);
      sv.candidate_count = sv.matches->rows.size();
    }
  }
  for (const JoinPlan::Selection& sel : plan.selections) {
    st.vertices[sel.vertex].residual = true;
  }
  for (const JoinPlan::LikeSelection& like : plan.like_selections) {
    st.vertices[like.vertex].residual = true;
  }
  for (JoinState::Vertex& sv : st.vertices) {
    sv.filtered = sv.keyword != nullptr || sv.residual;
  }

  // Per-vertex constraints, each vertex's in join order.
  st.constraints.clear();
  st.constraint_begin.resize(n + 1);
  for (size_t v = 0; v < n; ++v) {
    st.constraint_begin[v] = static_cast<uint32_t>(st.constraints.size());
    for (const JoinPlan::Join& j : plan.joins) {
      if (j.left == v) {
        st.constraints.push_back(
            VertexConstraint{j.right, j.left_column, j.right_column});
      }
      if (j.right == v) {
        st.constraints.push_back(
            VertexConstraint{j.left, j.right_column, j.left_column});
      }
    }
  }
  st.constraint_begin[n] = static_cast<uint32_t>(st.constraints.size());
  st.constraint_index.assign(st.constraints.size(), nullptr);

  // Instance order: start at the smallest candidate set, then repeatedly
  // take the connected unplaced instance with the fewest candidates
  // (disconnected queries fall back to the globally smallest — a cross
  // product, which the KWS-S system never generates but the shell may).
  st.order.clear();
  st.order_connected.clear();
  st.assigned.assign(n, false);  // "placed" while ordering
  size_t first = 0;
  for (size_t i = 1; i < n; ++i) {
    if (st.vertices[i].candidate_count <
        st.vertices[first].candidate_count) {
      first = i;
    }
  }
  st.order.push_back(static_cast<uint16_t>(first));
  st.order_connected.push_back(false);
  st.assigned[first] = true;
  while (st.order.size() < n) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (st.assigned[i]) continue;
      bool connected = false;
      for (const VertexConstraint* vc = st.begin(i); vc != st.end(i); ++vc) {
        if (st.assigned[vc->other]) {
          connected = true;
          break;
        }
      }
      const bool better =
          best < 0 || (connected && !best_connected) ||
          (connected == best_connected &&
           st.vertices[i].candidate_count <
               st.vertices[best].candidate_count);
      if (better) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    st.order.push_back(static_cast<uint16_t>(best));
    st.order_connected.push_back(best_connected);
    st.assigned[best] = true;
  }
}

StatusOr<bool> Executor::RunJoin(const JoinPlan& plan, size_t limit,
                                 ResultSet* out) {
  ++stats_.queries_executed;
  ExecTimeGuard time_guard(&stats_.exec_millis);
  StorageIoGuard io_guard(db_, text_index_, &stats_);
  // Out-of-core mode: some table (or the index) serves from disk. Two
  // behavioral changes hang off this flag — `const Value&` references that
  // straddle a page access of another table are copied, and candidate
  // sourcing runs most-selective-first — both no-ops for resident
  // databases.
  spill_mode_ =
      db_->AnySpilled() || (text_index_ != nullptr && text_index_->spilled());
  RevalidateCaches(plan);
  // Deadline polling: once at entry (cheap rejection of work already past
  // its budget) and every kCancelCheckStride probed rows inside the
  // backtracking loop — the only place a single query's work is unbounded.
  auto deadline_fired = [this] {
    return options_.cancellation != nullptr && options_.cancellation->Expired();
  };
  if (deadline_fired()) {
    return Status::DeadlineExceeded("query cancelled before execution");
  }
  Prepare(plan, /*estimate_spilled=*/true);
  JoinState& st = *state_;
  const size_t n = st.vertices.size();

  // Fast reject: a bound instance with zero matching rows.
  for (const JoinState::Vertex& sv : st.vertices) {
    if (sv.candidate_count == 0) return false;
  }

  // --- Stage 1: candidate sourcing ---------------------------------------
  // Every vertex with a per-row filter gets its candidate rows and their
  // membership set; unfiltered vertices stay "full". Selectivity-first
  // sourcing: under spill, source the cheapest vertex (by profile estimate)
  // first, so a network killed by an empty filter dies on the least
  // posting/page I/O. Resident databases keep vertex order — their match
  // sets were already built during planning.
  st.source_order.resize(n);
  for (size_t v = 0; v < n; ++v) st.source_order[v] = static_cast<uint16_t>(v);
  if (spill_mode_) {
    std::stable_sort(st.source_order.begin(), st.source_order.end(),
                     [&](uint16_t a, uint16_t b) {
                       return st.vertices[a].candidate_count <
                              st.vertices[b].candidate_count;
                     });
  }
  for (uint16_t v : st.source_order) {
    JoinState::Vertex& sv = st.vertices[v];
    if (!sv.filtered) continue;
    // Table/row access is about to scan this vertex's table.
    KWSDBG_FAULT_POINT("storage.table.read");
    if (sv.keyword != nullptr && sv.matches == nullptr) {
      sv.matches = &GetKeywordMatches(sv.table, *sv.keyword);
    }
    if (!sv.residual) {
      // Keyword only (every lattice node): the cached match set is the
      // candidate set, rows and bitset alike.
      sv.rows = RowSpan::Of(sv.matches->rows);
      sv.bits = sv.matches->bits.data();
      sv.num_bits = sv.matches->bits.size() * 64;
    } else {
      auto residual_ok = [&](uint32_t row) {
        for (const JoinPlan::Selection& sel : plan.selections) {
          if (sel.vertex == v &&
              !sv.table->at(row, sel.column).SqlEquals(sel.value)) {
            return false;
          }
        }
        for (const JoinPlan::LikeSelection& like : plan.like_selections) {
          if (like.vertex != v) continue;
          const Value& cell = sv.table->at(row, like.column);
          if (cell.is_null() || !LikeMatch(like.pattern, cell.AsString())) {
            return false;
          }
        }
        return true;
      };
      const uint32_t num_rows = static_cast<uint32_t>(sv.table->num_rows());
      sv.owned_rows.clear();
      sv.owned_bits.assign((num_rows + 63) / 64, 0);
      auto take = [&sv](uint32_t row) {
        sv.owned_bits[row >> 6] |= uint64_t{1} << (row & 63);
        sv.owned_rows.push_back(row);
      };
      if (sv.matches != nullptr) {
        for (uint32_t row : sv.matches->rows) {
          if (residual_ok(row)) take(row);
        }
      } else {
        for (uint32_t row = 0; row < num_rows; ++row) {
          if (sv.table->deleted(row)) continue;  // tombstoned rows are gone
          if (residual_ok(row)) take(row);
        }
      }
      sv.rows = RowSpan::Of(sv.owned_rows);
      sv.bits = sv.owned_bits.data();
      sv.num_bits = size_t{num_rows};
    }
    if (sv.rows.empty()) return false;  // a filter matched nothing
  }

  if (deadline_fired()) {
    return Status::DeadlineExceeded("query cancelled after candidate sourcing");
  }
  KWSDBG_FAULT_POINT("executor.join.probe");

  // --- Stage 2: backtracking join over the chosen order ------------------
  // Every multi-vertex join probes, and may build, a join-column index.
  if (n > 1) KWSDBG_FAULT_POINT("executor.index.build");
  st.assignment.assign(n, 0);
  st.assigned.assign(n, false);
  st.stack.resize(n);
  st.probe_constraint.assign(n, -1);
  std::vector<uint32_t>& assignment = st.assignment;
  std::vector<bool>& assigned = st.assigned;
  bool found = false;

  auto emit = [&]() {
    Tuple row;
    for (size_t i = 0; i < n; ++i) {
      const Tuple& src = st.vertices[i].table->row(assignment[i]);
      row.insert(row.end(), src.begin(), src.end());
    }
    out->rows.push_back(std::move(row));
    ++stats_.rows_output;
  };

  // Checks all constraints of `v` against already-assigned vertices except
  // the specific one used for the index probe (`skip_constraint` is an
  // offset into v's constraints, or -1). Skipping by constraint — not by the
  // probed vertex — keeps every predicate of a composite or parallel edge
  // enforced.
  auto check_constraints = [&](size_t v, uint32_t row, int skip_constraint) {
    const VertexConstraint* vcs = st.begin(v);
    for (const VertexConstraint* vc = vcs; vc != st.end(v); ++vc) {
      if (vc - vcs == skip_constraint) continue;
      if (!assigned[vc->other]) continue;
      const Value& own = st.vertices[v].table->at(row, vc->own_column);
      const Value& other = st.vertices[vc->other].table->at(
          assignment[vc->other], vc->other_column);
      if (!own.SqlEquals(other)) return false;
    }
    return true;
  };

  // The index over constraint c's own column, resolved once per query.
  auto probe_index = [&](size_t v, const VertexConstraint* vc) {
    const FlatRowIndex*& index =
        st.constraint_index[vc - st.constraints.data()];
    if (index == nullptr) {
      index = &GetFlatIndex(st.vertices[v].table, vc->own_column);
    }
    return index;
  };

  // Iterative depth-first search to avoid recursion-depth concerns and to
  // allow clean early exit on `limit` / the first existence witness.
  size_t depth = 0;
  bool done = false;

  auto init_frame = [&](size_t d) {
    const uint16_t v = st.order[d];
    JoinState::Frame& f = st.stack[d];
    f.next_pos = 0;
    f.candidates = RowSpan{};
    f.use_candidates = false;
    f.child_index = nullptr;
    f.prefetch_pos = 0;
    st.probe_constraint[d] = -1;
    // Prefer an index probe on a constraint to an assigned vertex.
    for (const VertexConstraint* vc = st.begin(v); vc != st.end(v); ++vc) {
      if (!assigned[vc->other]) continue;
      const FlatRowIndex* index = probe_index(v, vc);
      // When the parent frame prefetched this probe's bucket, its window
      // already hashed the key: probe with that hash.
      const JoinState::Frame* parent = d > 0 ? &st.stack[d - 1] : nullptr;
      const bool hashed = parent != nullptr &&
                          parent->child_index != nullptr &&
                          vc->other == st.order[d - 1];
      auto probe = [&](const Value& key) {
        if (key.is_null()) return RowSpan{};
        const uint64_t hash =
            hashed ? parent->window_hash[(parent->next_pos - 1) % kHashRing]
                   : key.Hash64();
        return index->LookupHashed(hash, key);
      };
      ++stats_.flat_probes;
      if (spill_mode_) {
        // Verifying a hash match may read this vertex's table — a page
        // access that can evict the frame a reference into the neighbor's
        // table points at. Copy the key first.
        const Value key = st.vertices[vc->other].table->at(
            assignment[vc->other], vc->other_column);
        f.candidates = probe(key);
      } else {
        f.candidates = probe(st.vertices[vc->other].table->at(
            assignment[vc->other], vc->other_column));
      }
      f.use_candidates = true;
      st.probe_constraint[d] = static_cast<int>(vc - st.begin(v));
      break;
    }
    // No assigned neighbor (root or disconnected component): enumerate the
    // candidate list instead of scanning the table.
    if (!f.use_candidates && st.vertices[v].filtered) {
      f.candidates = st.vertices[v].rows;
      f.use_candidates = true;
    }
    const size_t count = f.use_candidates ? f.candidates.size()
                                          : st.vertices[v].table->num_rows();
    if (d + 1 < n && count >= kBatchMinProbes) {
      // The next depth's probe constraint is deterministic: init_frame(d+1)
      // picks the first constraint of order[d+1] whose other side lies in
      // the prefix order[0..d]. When that other side is *this* vertex, each
      // candidate row here keys the child's index probe, so its bucket can
      // be prefetched a window ahead. (When it is an earlier vertex the key
      // is constant across this frame — nothing to pipeline.)
      const uint16_t child = st.order[d + 1];
      for (const VertexConstraint* vc = st.begin(child); vc != st.end(child);
           ++vc) {
        bool in_prefix = false;
        for (size_t k = 0; k <= d && !in_prefix; ++k) {
          in_prefix = st.order[k] == vc->other;
        }
        if (!in_prefix) continue;
        if (vc->other == v) {
          f.child_index = probe_index(child, vc);
          f.child_key_col = vc->other_column;
        }
        break;  // first in-prefix constraint is the probe; done either way
      }
    }
  };

  init_frame(0);

  while (!done) {
    const uint16_t v = st.order[depth];
    const JoinState::Vertex& sv = st.vertices[v];
    JoinState::Frame& f = st.stack[depth];
    bool advanced = false;
    const size_t frame_rows =
        f.use_candidates ? f.candidates.size() : sv.table->num_rows();
    while (true) {
      if (f.next_pos >= frame_rows) break;
      const uint32_t row =
          f.use_candidates ? f.candidates[f.next_pos++] : f.next_pos++;
      if (f.child_index != nullptr) {
        // Keep the child-probe window kPrefetchWindow keys ahead of the
        // cursor: hash the join key of upcoming candidates, keep the hash
        // for the descent's probe and prefetch the bucket it starts at.
        const bool window_open = f.prefetch_pos == 0;
        const size_t horizon =
            std::min(frame_rows, f.next_pos + kPrefetchWindow);
        while (f.prefetch_pos < horizon) {
          const uint32_t pos = f.prefetch_pos++;
          const uint32_t pr = f.use_candidates ? f.candidates[pos] : pos;
          // The cursor drops rows the candidate set rejects before they
          // probe, so their keys are never read (a page fetch when spilled).
          if (!sv.Admits(pr)) continue;
          const Value& key = sv.table->at(pr, f.child_key_col);
          if (key.is_null()) continue;
          const uint64_t hash = key.Hash64();
          f.window_hash[pos % kHashRing] = hash;
          f.child_index->PrefetchBucket(hash);
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
      if (!sv.Admits(row)) continue;
      // Full-table enumeration sees tombstoned rows; every other source
      // (match sets, candidate lists, patched join indexes) excludes them.
      if (!f.use_candidates && sv.table->deleted(row)) continue;
      if (!check_constraints(v, row, st.probe_constraint[depth])) continue;
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
      assigned[st.order[depth]] = false;
    }
  }

  return found;
}

StatusOr<JoinPlan> Executor::Compile(const JoinNetworkQuery& query) {
  JoinPlan plan;
  Status status = query.Validate(*db_, &plan);
  if (status.ok()) return plan;
  // Counted like a query that ran (ExecutorStats::queries_executed), and an
  // expired deadline still wins over a malformed query.
  ++stats_.queries_executed;
  if (options_.cancellation != nullptr && options_.cancellation->Expired()) {
    return Status::DeadlineExceeded("query cancelled before execution");
  }
  return status;
}

StatusOr<ResultSet> Executor::Execute(const JoinNetworkQuery& query,
                                      size_t limit) {
  KWSDBG_ASSIGN_OR_RETURN(JoinPlan plan, Compile(query));
  ResultSet result;
  for (size_t i = 0; i < plan.vertices.size(); ++i) {
    for (const Column& col : plan.vertices[i].table->schema().columns()) {
      result.columns.push_back(query.vertices[i].alias + "." + col.name);
    }
  }
  KWSDBG_RETURN_NOT_OK(RunJoin(plan, limit, &result).status());
  return result;
}

StatusOr<bool> Executor::IsNonEmpty(const JoinNetworkQuery& query) {
  StatusOr<JoinPlan> plan = Compile(query);
  if (!plan.ok()) {
    ++stats_.existence_probes;
    return plan.status();
  }
  return IsNonEmpty(*plan);
}

StatusOr<bool> Executor::IsNonEmpty(const JoinPlan& plan) {
  ++stats_.existence_probes;
  return RunJoin(plan, /*limit=*/1, /*out=*/nullptr);
}

StatusOr<std::string> Executor::Explain(const JoinNetworkQuery& query) {
  JoinPlan plan;
  KWSDBG_RETURN_NOT_OK(query.Validate(*db_, &plan));
  RevalidateCaches(plan);
  Prepare(plan, /*estimate_spilled=*/false);
  const JoinState& st = *state_;
  std::string out = "plan:\n";
  for (size_t d = 0; d < st.order.size(); ++d) {
    const uint16_t v = st.order[d];
    const JoinState::Vertex& sv = st.vertices[v];
    out += "  " + std::to_string(d + 1) + ". " + query.vertices[v].alias +
           " (" + query.vertices[v].table + ", ~" +
           std::to_string(sv.candidate_count) + " candidate rows)";
    if (d == 0) {
      if (sv.keyword == nullptr) {
        out += " via full scan";
      } else if (IndexServable(*sv.keyword)) {
        out += " via posting lists for '" + *sv.keyword + "'";
      } else {
        out += " via keyword scan '" + *sv.keyword + "'";
      }
    } else if (st.order_connected[d]) {
      out += " via index probe on a join column";
    } else {
      out += " via cross product (no join to prior instances)";
    }
    size_t residual = 0;
    for (const JoinPlan::Selection& sel : plan.selections) {
      residual += sel.vertex == v;
    }
    for (const JoinPlan::LikeSelection& like : plan.like_selections) {
      residual += like.vertex == v;
    }
    if (residual > 0) {
      out += ", +" + std::to_string(residual) + " residual filter(s)";
    }
    if (d > 0 && sv.keyword != nullptr) {
      out += ", keyword filter '" + *sv.keyword + "'";
    }
    out += "\n";
  }
  return out;
}

}  // namespace kwsdbg
