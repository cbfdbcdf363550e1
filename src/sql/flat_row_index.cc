#include "sql/flat_row_index.h"

#include <algorithm>

#include "common/timer.h"

namespace kwsdbg {

namespace {

/// Smallest power of two >= v (and >= 16).
uint64_t NextPow2(uint64_t v) {
  uint64_t c = 16;
  while (c < v) c <<= 1;
  return c;
}

constexpr uint64_t kNoClaim = ~uint64_t{0};

}  // namespace

FlatRowIndex FlatRowIndex::Build(const Table& table, size_t column) {
  Timer timer;
  FlatRowIndex index;
  index.table_ = &table;
  index.column_ = column;

  // Hash every non-NULL cell once up front; the two placement passes below
  // re-use these instead of touching Value again.
  const size_t num_rows = table.num_rows();
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> rows;
  hashes.reserve(num_rows);
  rows.reserve(num_rows);
  for (size_t row = 0; row < num_rows; ++row) {
    const Value& v = table.at(row, column);
    if (v.is_null()) continue;
    index.int_keys_ = index.int_keys_ && v.is_int();
    hashes.push_back(v.Hash64());
    rows.push_back(static_cast<uint32_t>(row));
  }
  // Over an int64-only column equal hashes are equal keys, so the passes
  // below verify against the column only when some key is not an int64.
  auto same_key = [&](uint32_t rep_row, uint32_t row) {
    return index.int_keys_ ||
           table.at(rep_row, column) == table.at(row, column);
  };

  // Pass A: find-or-claim a bucket per row, counting run lengths. The table
  // starts at 16 buckets and doubles whenever claiming a key would push the
  // load past 0.5, so it ends sized by distinct keys, not rows: join columns
  // repeat keys (150 topics over 8,400 about_topic rows). Linear probing
  // stays short and a probe window prefetching one line per key almost
  // never walks past it. During this pass run_begin temporarily holds the
  // run's representative row id (needed to verify hash-colliding keys
  // against the column); Rehash moves whole buckets, so it survives growth.
  index.buckets_.assign(16, Bucket{});
  index.mask_ = 15;
  size_t keys = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t h = hashes[i];
    uint64_t slot = h & index.mask_;
    for (;; slot = (slot + 1) & index.mask_) {
      const Bucket& b = index.buckets_[slot];
      if (b.run_len == 0) break;
      if (b.hash == h && same_key(b.run_begin, rows[i])) break;
    }
    if (index.buckets_[slot].run_len != 0) {
      ++index.buckets_[slot].run_len;
      continue;
    }
    if ((keys + 1) * 2 > index.buckets_.size()) {
      index.Rehash(index.buckets_.size() * 2);
      slot = h & index.mask_;
      while (index.buckets_[slot].run_len != 0) {
        slot = (slot + 1) & index.mask_;
      }
    }
    index.buckets_[slot] = Bucket{h, rows[i], 1};  // representative row
    ++keys;
  }

  // Prefix sums: assign each occupied bucket its arena run, remembering the
  // representative row for pass B's verification.
  const uint64_t capacity = index.buckets_.size();
  auto& buckets = index.buckets_;
  uint32_t offset = 0;
  std::vector<uint32_t> rep_rows(capacity, 0);
  std::vector<uint32_t> cursors(capacity, 0);
  for (uint64_t slot = 0; slot < capacity; ++slot) {
    Bucket& b = buckets[slot];
    if (b.run_len == 0) continue;
    ++index.stats_.distinct_keys;
    index.stats_.max_run_length =
        std::max<size_t>(index.stats_.max_run_length, b.run_len);
    rep_rows[slot] = b.run_begin;
    b.run_begin = offset;
    cursors[slot] = offset;
    offset += b.run_len;
  }
  index.arena_.resize(offset);

  // Pass B: re-probe each row (same probe sequence, so it lands on the same
  // bucket) and append it to the run. Rows are visited in ascending order,
  // so every run ends up ascending — the order a column scan visits them,
  // which the executor's result order depends on.
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t h = hashes[i];
    uint64_t slot = h & index.mask_;
    while (true) {
      const Bucket& b = buckets[slot];
      if (b.hash == h && b.run_len != 0 && same_key(rep_rows[slot], rows[i])) {
        index.arena_[cursors[slot]++] = rows[i];
        break;
      }
      slot = (slot + 1) & index.mask_;
    }
  }

  index.stats_.arena_bytes = index.arena_.size() * sizeof(uint32_t);
  index.stats_.bucket_bytes = capacity * sizeof(Bucket);
  index.stats_.build_millis = timer.ElapsedMillis();
  return index;
}

RowSpan FlatRowIndex::LookupHashed(uint64_t hash, const Value& v) const {
  if (buckets_.empty()) return RowSpan{};
  uint64_t slot = hash & mask_;
  while (true) {
    const Bucket& b = buckets_[slot];
    if (b.run_len == 0) {
      // Never-used slot: key absent. A tombstone (deleted bucket) keeps the
      // probe chain alive for keys placed past it.
      if (b.run_begin != kTombstoneSlot) return RowSpan{};
    } else if (b.hash == hash && KeyMatches(b, v)) {
      return RowSpan{arena_.data() + b.run_begin, b.run_len};
    }
    slot = (slot + 1) & mask_;
  }
}

void FlatRowIndex::ApplyInsert(uint32_t row, const Value& v) {
  if (v.is_null()) return;
  int_keys_ = int_keys_ && v.is_int();
  if (buckets_.empty()) {
    // Index built over an empty or all-NULL column: bootstrap a table.
    buckets_.assign(16, Bucket{});
    mask_ = 15;
  }
  // Keep load factor (live + tombstones) <= 0.5, counting the key this
  // insert may claim.
  if ((stats_.distinct_keys + tombstones_ + 1) * 2 > buckets_.size()) {
    Rehash(NextPow2((stats_.distinct_keys + 1) * 4));
  }
  const uint64_t h = v.Hash64();
  uint64_t slot = h & mask_;
  uint64_t claim = kNoClaim;
  while (true) {
    Bucket& b = buckets_[slot];
    if (b.run_len == 0) {
      if (b.run_begin == kTombstoneSlot) {
        if (claim == kNoClaim) claim = slot;  // reuse the first tombstone
        slot = (slot + 1) & mask_;
        continue;
      }
      // Key absent: claim a bucket with a fresh single-row run at the tail.
      Bucket& target = buckets_[claim == kNoClaim ? slot : claim];
      if (claim != kNoClaim) --tombstones_;
      target.hash = h;
      target.run_begin = static_cast<uint32_t>(arena_.size());
      target.run_len = 1;
      arena_.push_back(row);
      ++stats_.distinct_keys;
      stats_.max_run_length = std::max<size_t>(stats_.max_run_length, 1);
      break;
    }
    if (b.hash == h && KeyMatches(b, v)) {
      const size_t end = b.run_begin + b.run_len;
      if (end == arena_.size() && row > arena_[end - 1]) {
        // Run already at the arena tail and the row extends it in order
        // (the append-row fast path): grow in place.
        arena_.push_back(row);
        ++b.run_len;
      } else {
        // Relocate the run to the tail with `row` merged at its sorted
        // position; the old slots become garbage.
        const uint32_t new_begin = static_cast<uint32_t>(arena_.size());
        bool placed = false;
        for (uint32_t i = 0; i < b.run_len; ++i) {
          const uint32_t r = arena_[b.run_begin + i];
          if (!placed && row < r) {
            arena_.push_back(row);
            placed = true;
          }
          arena_.push_back(r);
        }
        if (!placed) arena_.push_back(row);
        garbage_ += b.run_len;
        b.run_begin = new_begin;
        ++b.run_len;
      }
      stats_.max_run_length =
          std::max<size_t>(stats_.max_run_length, b.run_len);
      break;
    }
    slot = (slot + 1) & mask_;
  }
  MaybeCompactArena();
  stats_.arena_bytes = arena_.capacity() * sizeof(uint32_t);
  stats_.bucket_bytes = buckets_.size() * sizeof(Bucket);
}

bool FlatRowIndex::ApplyDelete(uint32_t row, const Value& old_value) {
  if (old_value.is_null() || buckets_.empty()) return false;
  const uint64_t h = old_value.Hash64();
  uint64_t slot = h & mask_;
  while (true) {
    Bucket& b = buckets_[slot];
    if (b.run_len == 0) {
      if (b.run_begin != kTombstoneSlot) return false;  // key absent
    } else if (b.hash == h) {
      // Membership check instead of representative verification: the
      // representative may be `row` itself, or the cell may already be
      // blanked. A row id appears in at most one run per column, so finding
      // it here is definitive even across hash collisions.
      uint32_t* begin = arena_.data() + b.run_begin;
      uint32_t* end = begin + b.run_len;
      uint32_t* pos = std::lower_bound(begin, end, row);
      if (pos != end && *pos == row) {
        std::copy(pos + 1, end, pos);
        --b.run_len;
        ++garbage_;
        if (b.run_len == 0) {
          // Emptied key: tombstone the bucket so chains probing past it
          // stay reachable.
          b.hash = 0;
          b.run_begin = kTombstoneSlot;
          ++tombstones_;
          --stats_.distinct_keys;
        }
        MaybeCompactArena();
        return true;
      }
    }
    slot = (slot + 1) & mask_;
  }
}

void FlatRowIndex::Rehash(uint64_t new_capacity) {
  std::vector<Bucket> old = std::move(buckets_);
  mask_ = new_capacity - 1;
  buckets_.assign(new_capacity, Bucket{});
  tombstones_ = 0;
  // Hash-only re-placement: distinct values colliding on the full 64-bit
  // hash land in distinct buckets in any probe order, and lookups verify
  // against the representative row, so no table access is needed here.
  for (const Bucket& b : old) {
    if (b.run_len == 0) continue;
    uint64_t slot = b.hash & mask_;
    while (buckets_[slot].run_len != 0) slot = (slot + 1) & mask_;
    buckets_[slot] = b;
  }
}

void FlatRowIndex::MaybeCompactArena() {
  if (garbage_ * 4 <= arena_.size() || arena_.size() < 64) return;
  std::vector<uint32_t> fresh;
  fresh.reserve(arena_.size() - garbage_);
  for (Bucket& b : buckets_) {
    if (b.run_len == 0) continue;
    const uint32_t new_begin = static_cast<uint32_t>(fresh.size());
    fresh.insert(fresh.end(), arena_.begin() + b.run_begin,
                 arena_.begin() + b.run_begin + b.run_len);
    b.run_begin = new_begin;
  }
  arena_ = std::move(fresh);
  garbage_ = 0;
}

const FlatRowIndex& FlatRowIndexManager::GetOrBuild(const Table* table,
                                                    size_t column) {
  auto key = std::make_pair(table, column);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_
             .emplace(key, std::make_unique<FlatRowIndex>(
                               FlatRowIndex::Build(*table, column)))
             .first;
  }
  return *it->second;
}

size_t FlatRowIndexManager::EraseTable(const Table* table) {
  size_t erased = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.first == table) {
      it = cache_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

const FlatRowIndex& SharedFlatRowIndexManager::GetOrBuildLocked(
    const Table* table, size_t column, bool* built) {
  auto key = std::make_pair(table, column);
  auto it = cache_.find(key);
  // A mismatched stamp means the table mutated in a way the mutator did not
  // patch (compaction, or no mutator wired): rebuild. The erase is safe
  // without quiescence because every probe holds the index gate shared
  // while this caller holds it exclusively or the entry was evicted under
  // the writer's exclusive hold — see the class comment.
  if (it != cache_.end() && it->second.table_epoch != table->data_epoch()) {
    cache_.erase(it);
    it = cache_.end();
  }
  bool did_build = false;
  if (it == cache_.end()) {
    Entry e;
    e.index = std::make_unique<FlatRowIndex>(FlatRowIndex::Build(*table,
                                                                 column));
    e.table_epoch = table->data_epoch();
    it = cache_.emplace(key, std::move(e)).first;
    did_build = true;
  }
  if (built != nullptr) *built = did_build;
  return *it->second.index;
}

const FlatRowIndex& SharedFlatRowIndexManager::GetOrBuild(const Table* table,
                                                          size_t column,
                                                          uint64_t epoch,
                                                          bool* built) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epoch_) {
    // Lazy whole-epoch invalidation (legacy BumpEpoch between batches): the
    // first probe against the new epoch drops every index.
    cache_.clear();
    epoch_ = epoch;
  }
  return GetOrBuildLocked(table, column, built);
}

size_t SharedFlatRowIndexManager::ApplyRowInsert(const Table* table,
                                                 uint32_t row) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t patches = 0;
  for (auto& [key, entry] : cache_) {
    if (key.first != table) continue;
    entry.index->ApplyInsert(row, table->at(row, key.second));
    entry.table_epoch = table->data_epoch();
    ++patches;
  }
  return patches;
}

size_t SharedFlatRowIndexManager::ApplyRowDelete(const Table* table,
                                                 uint32_t row,
                                                 const Tuple& old_row) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t patches = 0;
  for (auto& [key, entry] : cache_) {
    if (key.first != table) continue;
    entry.index->ApplyDelete(row, old_row[key.second]);
    entry.table_epoch = table->data_epoch();
    ++patches;
  }
  return patches;
}

size_t SharedFlatRowIndexManager::ApplyCellUpdate(const Table* table,
                                                  uint32_t row, size_t column,
                                                  const Value& old_value) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t patches = 0;
  for (auto& [key, entry] : cache_) {
    if (key.first != table) continue;
    if (key.second == column) {
      entry.index->ApplyDelete(row, old_value);
      entry.index->ApplyInsert(row, table->at(row, column));
      ++patches;
    }
    // Indexes over other columns are unaffected, but restamp them so the
    // epoch check keeps them warm.
    entry.table_epoch = table->data_epoch();
  }
  return patches;
}

size_t SharedFlatRowIndexManager::EraseTable(const Table* table) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t erased = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->first.first == table) {
      it = cache_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

void SharedFlatRowIndexManager::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

size_t SharedFlatRowIndexManager::num_indexes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace kwsdbg
