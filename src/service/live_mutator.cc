#include "service/live_mutator.h"

#include "common/fault_injector.h"
#include "common/logging.h"

namespace kwsdbg {

namespace {

/// True iff the index maintains postings for this table at all (tables can
/// predate the index build or carry no text columns).
bool IndexCovers(const InvertedIndex* index, const Table& t) {
  return index != nullptr &&
         index->TableIdOf(t.name()) != InvertedIndex::kNoTable;
}

Status PoisonedStatus() {
  return Status::DataLoss(
      "mutator is poisoned: a prior WAL append failed after its "
      "in-memory apply, so memory and log have diverged");
}

}  // namespace

Status LiveMutator::PatchTextIndex(const Mutation& m, Table* t, uint32_t row,
                                   const Value& old_value, size_t* patches) {
  if (!IndexCovers(index_, *t)) return Status::OK();
  switch (m.kind) {
    case Mutation::Kind::kInsert: {
      StatusOr<size_t> n = index_->ApplyRowInsert(*t, row);
      if (!n.ok()) {
        // The row is in the table but not the index: roll it back to a
        // tombstone (blank cells are invisible to scans and rebuilds), so
        // the two stay consistent and the caller sees a clean failure.
        KWSDBG_CHECK(t->DeleteRow(row).ok());
        return n.status();
      }
      *patches += *n;
      return Status::OK();
    }
    case Mutation::Kind::kDelete: {
      // Must run before DeleteRow blanks the cells — it re-tokenizes them.
      KWSDBG_ASSIGN_OR_RETURN(size_t n, index_->ApplyRowDelete(*t, row));
      *patches += n;
      return Status::OK();
    }
    case Mutation::Kind::kUpdate: {
      if (t->schema().column(m.column).type != DataType::kString) {
        return Status::OK();  // Non-text columns carry no postings.
      }
      StatusOr<size_t> n = index_->ApplyCellUpdate(*t, row, m.column,
                                                   old_value);
      if (!n.ok()) {
        // ApplyCellUpdate validates before patching, so the index is
        // untouched; restore the cell and report the typed failure.
        KWSDBG_CHECK(t->SetValue(row, m.column, old_value).ok());
        return n.status();
      }
      *patches += *n;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable mutation kind");
}

Status LiveMutator::CompactNow(Table* t) {
  KWSDBG_ASSIGN_OR_RETURN(std::vector<uint32_t> remap, t->Compact());
  if (IndexCovers(index_, *t)) {
    KWSDBG_RETURN_NOT_OK(index_->RemapRows(t->name(), remap));
  }
  // Row ids shifted wholesale: patching the flat arenas is meaningless, and
  // the stale entries would mis-probe. Drop them; the next query rebuilds.
  for (SharedFlatRowIndexManager* tier : tiers_) tier->EraseTable(t);
  stats_.compactions.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LiveMutator::MaybeCompact(Table* t, bool logging) {
  // Replay never auto-compacts: compactions replay only where the log
  // recorded them, so recovered row ids line up with logged row ids.
  if (!logging) return Status::OK();
  if (options_.auto_compact_fraction <= 0) return Status::OK();
  if (t->deleted_fraction() <= options_.auto_compact_fraction) {
    return Status::OK();
  }
  // On-disk posting lists cannot be row-remapped in place; leave the
  // tombstones until the index is rebuilt resident.
  if (index_ != nullptr && index_->spilled()) return Status::OK();
  KWSDBG_RETURN_NOT_OK(CompactNow(t));
  if (logging && wal_ != nullptr) {
    const Status logged = wal_->AppendCompact(t->name());
    if (!logged.ok()) {
      wal_poisoned_.store(true, std::memory_order_release);
      return Status::DataLoss("WAL compact append failed after compaction: " +
                              logged.ToString());
    }
  }
  return Status::OK();
}

Status LiveMutator::Apply(const Mutation& m) {
  return ApplyInternal(m, /*logging=*/true);
}

Status LiveMutator::ApplyRecord(const WalRecord& record) {
  if (record.kind == WalRecord::Kind::kCompact) {
    Table* t = db_->FindTable(record.table);
    if (t == nullptr) {
      return Status::DataLoss("WAL compact record names unknown table " +
                              record.table);
    }
    RelationWriteGuard guard(fences_, t->catalog_index());
    return CompactNow(t);
  }
  return ApplyInternal(record.mutation, /*logging=*/false);
}

Status LiveMutator::ApplyInternal(const Mutation& m, bool logging) {
  if (wal_poisoned_.load(std::memory_order_acquire)) return PoisonedStatus();
  // Encode the WAL frame up front so an unloggable mutation (a row that
  // encodes past the frame limit) fails here, before any in-memory state
  // changes — discovering it at append time would force a poison.
  std::string wal_payload;
  if (logging && wal_ != nullptr) {
    wal_payload = EncodeWalMutation(m);
    if (wal_payload.size() > kWalMaxPayload) {
      return Status::InvalidArgument(
          "mutation encodes to " + std::to_string(wal_payload.size()) +
          " WAL bytes, over the " + std::to_string(kWalMaxPayload) +
          "-byte frame limit");
    }
  }
  // Fail-before-mutate: an injected outage at this point leaves the table,
  // the index, and every cache byte-identical to before the call — the
  // chaos layer in tests/service/differential_fuzz_test.cc relies on it.
  KWSDBG_FAULT_POINT("storage.mutation.apply");
  Table* t = db_->FindTable(m.table);
  if (t == nullptr) return Status::NotFound("no table " + m.table);
  // A spilled table refuses every write itself; refusing up front too keeps
  // a delete from patching the index before the table turns it down.
  if (t->spilled()) {
    return Status::FailedPrecondition("write to spilled table '" + m.table +
                                      "': spilled tables are read-only");
  }

  // Exclusive fence on the mutated relation + the index gate: in-flight
  // queries over other relations keep running; queries binding this one
  // wait out exactly one table-and-index patch.
  RelationWriteGuard guard(fences_, t->catalog_index());

  // Re-check under the fence: a concurrent Apply() on another relation
  // (holding a different fence) may have poisoned the mutator between the
  // fast-path check above and this acquisition.
  if (wal_poisoned_.load(std::memory_order_acquire)) return PoisonedStatus();

  size_t patches = 0;
  uint32_t row = 0;
  Value old_value;
  Tuple old_row;
  switch (m.kind) {
    case Mutation::Kind::kInsert: {
      KWSDBG_RETURN_NOT_OK(t->AppendRow(m.row));
      row = static_cast<uint32_t>(t->num_rows() - 1);
      const Status patched = PatchTextIndex(m, t, row, old_value, &patches);
      if (!patched.ok()) {
        // PatchTextIndex tombstoned the row; the table still changed shape,
        // so stale flat indexes must notice.
        t->BumpDataEpoch();
        return patched;
      }
      break;
    }
    case Mutation::Kind::kDelete: {
      if (m.row_id >= t->num_rows()) {
        return Status::InvalidArgument("delete: row out of range");
      }
      if (t->deleted(m.row_id)) {
        return Status::InvalidArgument("delete: row already deleted");
      }
      row = static_cast<uint32_t>(m.row_id);
      old_row = t->row(row);  // copy: flat patches need pre-blank values
      KWSDBG_RETURN_NOT_OK(PatchTextIndex(m, t, row, old_value, &patches));
      KWSDBG_RETURN_NOT_OK(t->DeleteRow(row));
      break;
    }
    case Mutation::Kind::kUpdate: {
      if (m.row_id >= t->num_rows()) {
        return Status::InvalidArgument("update: row out of range");
      }
      if (t->deleted(m.row_id)) {
        return Status::InvalidArgument("update: row is deleted");
      }
      if (m.column >= t->schema().num_columns()) {
        return Status::InvalidArgument("update: column out of range");
      }
      row = static_cast<uint32_t>(m.row_id);
      old_value = t->at(row, m.column);  // copy before overwrite
      KWSDBG_RETURN_NOT_OK(t->SetValue(row, m.column, m.value));
      const Status patched = PatchTextIndex(m, t, row, old_value, &patches);
      if (!patched.ok()) return patched;  // cell already restored
      break;
    }
  }

  // Bump before the flat patches: the tiers restamp their entries to the
  // *new* epoch, so only this write's patch revalidates them.
  t->BumpDataEpoch();
  for (SharedFlatRowIndexManager* tier : tiers_) {
    switch (m.kind) {
      case Mutation::Kind::kInsert:
        patches += tier->ApplyRowInsert(t, row);
        break;
      case Mutation::Kind::kDelete:
        patches += tier->ApplyRowDelete(t, row, old_row);
        break;
      case Mutation::Kind::kUpdate:
        patches += tier->ApplyCellUpdate(t, row, m.column, old_value);
        break;
    }
  }
  // Log after the in-memory apply succeeds, before acknowledging: a write
  // the caller never saw succeed may be missing from the log, but an
  // acknowledged write never is. An append failure here means memory holds
  // a write the log does not — poison the mutator rather than let the two
  // drift further.
  if (logging && wal_ != nullptr) {
    const Status logged = wal_->AppendPayload(wal_payload);
    if (!logged.ok()) {
      wal_poisoned_.store(true, std::memory_order_release);
      return Status::DataLoss("WAL append failed after in-memory apply: " +
                              logged.ToString());
    }
  }
  KWSDBG_RETURN_NOT_OK(MaybeCompact(t, logging));

  // Partial invalidation: only verdicts whose relation mask includes this
  // table die; verdicts over disjoint relations stay warm across the write.
  const uint64_t mask = RelationFences::BitFor(t->catalog_index());
  size_t evicted = 0;
  for (VerdictCache* cache : caches_) evicted += cache->EvictRelations(mask);

  stats_.partial_evictions.fetch_add(evicted, std::memory_order_relaxed);
  stats_.index_patches.fetch_add(patches, std::memory_order_relaxed);
  stats_.mutations_applied.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace kwsdbg
