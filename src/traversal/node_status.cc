#include "traversal/node_status.h"

#include <bit>
#include <utility>

namespace kwsdbg {

NodeStatusMap::NodeStatusMap(size_t num_retained)
    : unknown_((num_retained + 63) / 64, ~uint64_t{0}),
      alive_(unknown_.size(), 0) {
  if (num_retained % 64 != 0) {
    unknown_.back() = (uint64_t{1} << (num_retained % 64)) - 1;
  }
}

void NodeStatusMap::Set(LocalId l, NodeStatus s) {
  const uint64_t bit = uint64_t{1} << (l & 63);
  unknown_[l >> 6] &= ~bit;
  alive_[l >> 6] &= ~bit;
  if (s == NodeStatus::kPossiblyAlive) unknown_[l >> 6] |= bit;
  if (s == NodeStatus::kAlive) alive_[l >> 6] |= bit;
}

bool NodeStatusMap::AllKnown(std::span<const uint64_t> row) const {
  for (size_t w = 0; w < row.size(); ++w) {
    if ((row[w] & unknown_[w]) != 0) return false;
  }
  return true;
}

size_t NodeStatusMap::Classify(std::span<const uint64_t> row, bool alive,
                               std::vector<LocalId>* newly) {
  size_t count = 0;
  for (size_t w = 0; w < row.size(); ++w) {
    const uint64_t fresh = row[w] & unknown_[w];
    unknown_[w] &= ~fresh;
    if (alive) alive_[w] |= fresh;
    count += std::popcount(fresh);
    if (newly == nullptr) continue;
    for (uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
      newly->push_back(static_cast<LocalId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return count;
}

size_t NodeStatusMap::MarkAliveWithDescendants(LocalId l,
                                               const PrunedLattice& pl,
                                               std::vector<LocalId>* newly) {
  Set(l, NodeStatus::kAlive);
  return Classify(pl.DescendantRow(l), /*alive=*/true, newly);
}

size_t NodeStatusMap::MarkDeadWithAncestors(LocalId l, const PrunedLattice& pl,
                                            std::vector<LocalId>* newly) {
  Set(l, NodeStatus::kDead);
  return Classify(pl.AncestorRow(l), /*alive=*/false, newly);
}

SbhState::SbhState(const PrunedLattice& pl, std::vector<double> level_pa)
    : pl_(&pl),
      level_pa_(std::move(level_pa)),
      status_(pl.num_retained()),
      w_(pl.num_retained(), 0),
      a_sum_(pl.num_retained(), 0),
      d_sum_(pl.num_retained(), 0) {
  // W: how many MTN search spaces each node belongs to.
  for (LocalId m : pl.mtn_locals()) {
    ++w_[m];
    ForEachInRow(pl.DescendantRow(m), [&](LocalId d) { ++w_[d]; });
  }
  // A/D: sums of W over unknown retained ancestors / descendants.
  for (LocalId n = 0; n < pl.num_retained(); ++n) {
    ForEachInRow(pl.AncestorRow(n), [&](LocalId a) { a_sum_[n] += w_[a]; });
    ForEachInRow(pl.DescendantRow(n), [&](LocalId d) { d_sum_[n] += w_[d]; });
  }
}

double SbhState::Gain(LocalId l) const {
  const double p = level_pa_[pl_->LevelOf(l)];
  return static_cast<double>(w_[l]) +
         (1.0 - p) * static_cast<double>(a_sum_[l]) +
         p * static_cast<double>(d_sum_[l]);
}

LocalId SbhState::Pick() const {
  // Only a strictly greater gain replaces the pick, and the unknown row is
  // walked in ascending order, so the first of equal gains wins.
  LocalId best = kNotRetained;
  double best_gain = 0;
  ForEachInRow(status_.unknown(), [&](LocalId u) {
    const double gain = Gain(u);
    if (best == kNotRetained || gain > best_gain) {
      best = u;
      best_gain = gain;
    }
  });
  return best;
}

void SbhState::Classify(LocalId l, bool alive) {
  newly_.assign(1, l);
  if (alive) {
    status_.MarkAliveWithDescendants(l, *pl_, &newly_);
  } else {
    status_.MarkDeadWithAncestors(l, *pl_, &newly_);
  }
  // Classifying u zeroes its W and shrinks the A/D of its closure. An `l`
  // that was already known has W 0 and changes nothing.
  for (LocalId u : newly_) {
    const int64_t delta = w_[u];
    if (delta == 0) continue;
    w_[u] = 0;
    ForEachInRow(pl_->AncestorRow(u), [&](LocalId a) { d_sum_[a] -= delta; });
    ForEachInRow(pl_->DescendantRow(u),
                 [&](LocalId d) { a_sum_[d] -= delta; });
  }
}

}  // namespace kwsdbg
