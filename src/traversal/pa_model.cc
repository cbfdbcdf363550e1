#include "traversal/pa_model.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "storage/database.h"
#include "text/inverted_index.h"

namespace kwsdbg {

namespace {

constexpr uint64_t kAliveUnit = uint64_t{1} << 32;

/// Buckets with fewer observations than this return the prior untouched.
constexpr uint64_t kMinObservations = 4;
/// Pseudo-count weight of the prior (Laplace-style smoothing).
constexpr double kPriorStrength = 2.0;
/// Estimates clamp into [kClampLo, kClampHi].
constexpr double kClampLo = 0.1;
constexpr double kClampHi = 0.9;

uint64_t AliveOf(uint64_t packed) { return packed >> 32; }
uint64_t TotalOf(uint64_t packed) { return packed & 0xffffffffull; }

}  // namespace

size_t PaModel::LevelIndex(size_t level) {
  if (level == 0) return 0;
  return std::min(level, kMaxLevelBuckets) - 1;
}

size_t PaModel::IndexOf(size_t level, size_t sel_bucket) {
  return LevelIndex(level) * kSelBuckets + std::min(sel_bucket, kSelBuckets - 1);
}

bool PaModel::Observe(size_t level, size_t sel_bucket, bool alive) {
  if (frozen()) return false;
  counts_[IndexOf(level, sel_bucket)].fetch_add(
      (alive ? kAliveUnit : 0) + 1, std::memory_order_relaxed);
  return true;
}

double PaModel::Estimate(size_t level, size_t sel_bucket) const {
  const uint64_t packed =
      counts_[IndexOf(level, sel_bucket)].load(std::memory_order_relaxed);
  if (TotalOf(packed) < kMinObservations) return kPrior;
  const double total = static_cast<double>(TotalOf(packed));
  const double alive = static_cast<double>(AliveOf(packed));
  const double p =
      (alive + kPrior * kPriorStrength) / (total + kPriorStrength);
  return std::clamp(p, kClampLo, kClampHi);
}

void PaModel::SyncDataVersion(uint64_t version) {
  if (version == 0 || frozen()) return;
  if (data_version_.load(std::memory_order_acquire) == version) return;
  std::lock_guard<std::mutex> lock(decay_mu_);
  const uint64_t previous = data_version_.load(std::memory_order_relaxed);
  if (previous == version) return;
  if (previous != 0) {
    // The data drifted under the model: halve every bucket so old evidence
    // fades in a couple of drifts instead of outvoting fresh verdicts. CAS
    // per bucket — a concurrent Observe either lands before the halving or
    // retries us, never corrupts the packed pair.
    for (auto& cell : counts_) {
      uint64_t cur = cell.load(std::memory_order_relaxed);
      uint64_t halved;
      do {
        halved = ((AliveOf(cur) >> 1) << 32) | (TotalOf(cur) >> 1);
      } while (!cell.compare_exchange_weak(cur, halved,
                                           std::memory_order_relaxed));
    }
  }
  data_version_.store(version, std::memory_order_release);
}

size_t PaModel::observations() const {
  uint64_t total = 0;
  for (const auto& cell : counts_) {
    total += TotalOf(cell.load(std::memory_order_relaxed));
  }
  return static_cast<size_t>(total);
}

std::vector<PaBucketSnapshot> PaModel::Snapshot() const {
  std::vector<PaBucketSnapshot> out;
  for (size_t level = 1; level <= kMaxLevelBuckets; ++level) {
    for (size_t sel = 0; sel < kSelBuckets; ++sel) {
      const uint64_t packed =
          counts_[IndexOf(level, sel)].load(std::memory_order_relaxed);
      if (TotalOf(packed) == 0) continue;
      PaBucketSnapshot snap;
      snap.level = static_cast<uint32_t>(level);
      snap.sel_bucket = static_cast<uint32_t>(sel);
      snap.alive = AliveOf(packed);
      snap.total = TotalOf(packed);
      snap.pa = Estimate(level, sel);
      out.push_back(snap);
    }
  }
  return out;
}

std::vector<PaBucketSnapshot> PaModel::SnapshotFor(size_t sel_bucket) const {
  const size_t sel = std::min(sel_bucket, kSelBuckets - 1);
  std::vector<PaBucketSnapshot> out;
  for (size_t level = 1; level <= kMaxLevelBuckets; ++level) {
    const uint64_t packed =
        counts_[IndexOf(level, sel)].load(std::memory_order_relaxed);
    if (TotalOf(packed) == 0) continue;
    PaBucketSnapshot snap;
    snap.level = static_cast<uint32_t>(level);
    snap.sel_bucket = static_cast<uint32_t>(sel);
    snap.alive = AliveOf(packed);
    snap.total = TotalOf(packed);
    snap.pa = Estimate(level, sel);
    out.push_back(snap);
  }
  return out;
}

size_t SelectivityBucketOf(size_t row_frequency) {
  if (row_frequency == 0) return 0;
  // log4 steps: 1-3 -> 1, 4-15 -> 2, 16-63 -> 3, ... capped at the top.
  const size_t log2 = static_cast<size_t>(std::bit_width(row_frequency)) - 1;
  return std::min(size_t{1} + log2 / 2, PaModel::kSelBuckets - 1);
}

size_t MinBoundRowFrequency(const KeywordBinding& binding,
                            const SchemaGraph& schema,
                            const InvertedIndex* index) {
  if (index == nullptr || binding.assignments().empty()) return 0;
  size_t min_rows = SIZE_MAX;
  for (const KeywordAssignment& a : binding.assignments()) {
    const std::string& table = schema.relation(a.vertex.relation).name;
    min_rows = std::min(min_rows, index->RowFrequency(a.keyword, table));
  }
  return min_rows == SIZE_MAX ? 0 : min_rows;
}

size_t SelectivityBucketFor(const PrunedLattice& pl,
                            const InvertedIndex* index) {
  return SelectivityBucketOf(
      MinBoundRowFrequency(pl.binding(), pl.lattice().schema(), index));
}

uint64_t DataVersionOf(const Database& db) {
  uint64_t h = SplitMix64(0xada9717eull ^ db.epoch());
  for (const std::string& name : db.TableNames()) {
    const Table* t = db.FindTable(name);
    if (t != nullptr) h = SplitMix64(h ^ t->data_epoch());
  }
  return h == 0 ? 1 : h;
}

}  // namespace kwsdbg
