// Online estimation of SBH's alive probability p_a (paper Sec. 2.5.3 names
// it as future work). The model buckets observations by (lattice level,
// keyword-selectivity bucket): every fresh SQL verdict and every level-1
// shortcut verdict is a free labeled sample, so the debugger feeds them in
// through EvalOptions::pa_model and later SBH runs read a per-level estimate
// instead of the fixed 0.5.
//
// Counters are packed (alive << 32 | total) in one atomic per bucket, so the
// observe/estimate hot path is a single relaxed fetch_add/load — cheap enough
// to share one model across every worker of a DebugService, the same way
// the workers share the flat-index tier. Live mutations bump data epochs;
// SyncDataVersion folds them into a model version and halves all counts on a
// change, so stale evidence decays instead of being trusted forever.
#ifndef KWSDBG_TRAVERSAL_PA_MODEL_H_
#define KWSDBG_TRAVERSAL_PA_MODEL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace kwsdbg {

class Database;
class InvertedIndex;
class KeywordBinding;
class PrunedLattice;
class SchemaGraph;

/// One non-empty model bucket, for stats plumbing and report JSON.
struct PaBucketSnapshot {
  uint32_t level = 0;       ///< Lattice level (clamped to kMaxLevelBuckets).
  uint32_t sel_bucket = 0;  ///< Keyword-selectivity bucket.
  uint64_t alive = 0;
  uint64_t total = 0;
  double pa = 0.5;          ///< The estimate the bucket currently yields.
};

/// Thread-safe online p_a model. Observe/Estimate are lock-free; the rare
/// decay on a data-version change takes a mutex but never blocks observers.
class PaModel {
 public:
  /// Lattice levels above this clamp onto the last level bucket.
  static constexpr size_t kMaxLevelBuckets = 8;
  /// Selectivity buckets (log4 of the rarest bound keyword's row count).
  static constexpr size_t kSelBuckets = 8;
  /// The paper's fixed p_a, returned for cold buckets, so an empty model
  /// reproduces static SBH @ 0.5 bit for bit.
  static constexpr double kPrior = 0.5;

  /// Records one verdict; returns false (and records nothing) once frozen.
  bool Observe(size_t level, size_t sel_bucket, bool alive);

  /// Current estimate for a bucket: kPrior while the bucket has fewer than
  /// four observations, else the alive fraction smoothed by two pseudo-counts
  /// of kPrior and clamped into [0.1, 0.9] (an all-alive or all-dead bucket
  /// must not collapse SBH into pure TD/BU behaviour).
  double Estimate(size_t level, size_t sel_bucket) const;

  /// Folds the data version (see DataVersionOf) into the model: on a change
  /// every bucket's counts are halved, so evidence gathered against old data
  /// decays instead of dominating fresh observations. No-op when the version
  /// is unchanged or the model is frozen.
  void SyncDataVersion(uint64_t version);
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_relaxed);
  }

  /// Stops Observe and SyncDataVersion: benches freeze the model so the
  /// measured pass is deterministic given the trained state.
  void Freeze() { frozen_.store(true, std::memory_order_relaxed); }
  bool frozen() const { return frozen_.load(std::memory_order_relaxed); }

  /// Total observations across all buckets (post-decay).
  size_t observations() const;

  /// All non-empty buckets.
  std::vector<PaBucketSnapshot> Snapshot() const;
  /// Non-empty buckets of one selectivity column (the slice a query reads).
  std::vector<PaBucketSnapshot> SnapshotFor(size_t sel_bucket) const;

 private:
  static size_t LevelIndex(size_t level);
  static size_t IndexOf(size_t level, size_t sel_bucket);

  /// alive << 32 | total, so one fetch_add keeps the pair consistent.
  std::array<std::atomic<uint64_t>, kMaxLevelBuckets * kSelBuckets> counts_{};
  std::atomic<uint64_t> data_version_{0};  ///< 0 = never synced.
  std::atomic<bool> frozen_{false};
  mutable std::mutex decay_mu_;
};

/// Maps a row frequency to a selectivity bucket: 0 for absent keywords, then
/// log4 steps (1-3, 4-15, ..., >= 4096) capped at kSelBuckets - 1.
size_t SelectivityBucketOf(size_t row_frequency);

/// Row frequency of the rarest bound keyword across its assigned relation
/// (the binding's tightest posting list — the dominant cost driver). Returns
/// 0 with no index or no assignments.
size_t MinBoundRowFrequency(const KeywordBinding& binding,
                            const SchemaGraph& schema,
                            const InvertedIndex* index);

/// Convenience: the selectivity bucket of an interpretation.
size_t SelectivityBucketFor(const PrunedLattice& pl,
                            const InvertedIndex* index);

/// Folds the database epoch and every table's data epoch into one version
/// (never 0, so 0 can mean "unset"). Live mutations bump these epochs; the
/// adaptive debugger calls this per query and hands it to
/// PaModel::SyncDataVersion so model state tracks data drift.
uint64_t DataVersionOf(const Database& db);

}  // namespace kwsdbg

#endif  // KWSDBG_TRAVERSAL_PA_MODEL_H_
