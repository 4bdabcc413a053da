#include "serving/snapshot_manager.h"

#include <utility>

namespace gpm::serving {

SnapshotManager::SnapshotManager(std::shared_ptr<const Graph> initial,
                                 size_t max_readers)
    : max_readers_(max_readers == 0 ? 1 : max_readers),
      slots_(std::make_unique<Slot[]>(max_readers == 0 ? 1 : max_readers)) {
  assert(initial != nullptr);
  head_owner_ = std::make_unique<VersionNode>();
  head_owner_->graph = std::move(initial);
  head_owner_->epoch = 1;
  head_.store(head_owner_.get(), std::memory_order_seq_cst);
}

SnapshotManager::~SnapshotManager() = default;

SnapshotManager::Reader SnapshotManager::RegisterReader() {
  for (size_t i = 0; i < max_readers_; ++i) {
    bool expected = false;
    if (slots_[i].registered.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slots_[i].epoch.store(kQuiescent, std::memory_order_seq_cst);
      return Reader(this, &slots_[i]);
    }
  }
  return Reader();  // table full
}

SnapshotManager::Pin SnapshotManager::Reader::PinSnapshot() {
  if (slot_ == nullptr) return Pin();
  assert(slot_->epoch.load(std::memory_order_relaxed) == kQuiescent &&
         "one live Pin per Reader");
  // Announce-then-verify: re-announce until the global epoch holds still
  // across the announcement. Not needed for safety (see the file comment's
  // ordering argument) but keeps the announced epoch tight, so reclamation
  // is never held back by a stale announcement.
  uint64_t e = manager_->epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot_->epoch.store(e, std::memory_order_seq_cst);
    const uint64_t now = manager_->epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  const VersionNode* node = manager_->head_.load(std::memory_order_seq_cst);
  // A Publish in flight stores its head before its epoch; a reader that
  // loaded the new head completes that publication, so no pin reports an
  // epoch the manager has not published. The CAS only ever raises the
  // epoch to a head some reader already holds.
  uint64_t current = e;
  while (current < node->epoch &&
         !manager_->epoch_.compare_exchange_weak(current, node->epoch,
                                                 std::memory_order_seq_cst)) {
  }
  return Pin(slot_, node);
}

void SnapshotManager::Publish(std::shared_ptr<const Graph> next) {
  assert(next != nullptr);
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto node = std::make_unique<VersionNode>();
  node->graph = std::move(next);
  node->epoch = epoch_.load(std::memory_order_relaxed) + 1;
  // Head first, then the epoch: a reader that announces the new epoch is
  // thereby guaranteed to load the new head (see the ordering contract).
  head_.store(node.get(), std::memory_order_seq_cst);
  if (publish_hook_) publish_hook_();
  epoch_.store(node->epoch, std::memory_order_seq_cst);
  head_owner_->retire_epoch = node->epoch;
  retired_.push_back(std::move(head_owner_));
  head_owner_ = std::move(node);
  published_.fetch_add(1, std::memory_order_relaxed);
  ReclaimLocked();
}

void SnapshotManager::SetPublishHookForTesting(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  publish_hook_ = std::move(hook);
}

size_t SnapshotManager::TryReclaim() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ReclaimLocked();
}

size_t SnapshotManager::ReclaimLocked() {
  const uint64_t floor = OldestAnnounced();
  size_t freed = 0;
  // retired_ is in retire-epoch order, so the drained prefix is exactly
  // what is freeable.
  while (!retired_.empty() && retired_.front()->retire_epoch <= floor) {
    retired_.pop_front();
    ++freed;
  }
  if (freed > 0) reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

uint64_t SnapshotManager::OldestAnnounced() const {
  uint64_t oldest = kQuiescent;
  for (size_t i = 0; i < max_readers_; ++i) {
    const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e < oldest) oldest = e;
  }
  return oldest;
}

SnapshotManager::Stats SnapshotManager::stats() const {
  Stats stats;
  stats.epoch = epoch_.load(std::memory_order_seq_cst);
  stats.published = published_.load(std::memory_order_relaxed);
  stats.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  uint64_t oldest = kQuiescent;
  uint64_t pins = 0;
  for (size_t i = 0; i < max_readers_; ++i) {
    const uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e == kQuiescent) continue;
    ++pins;
    if (e < oldest) oldest = e;
  }
  stats.active_pins = pins;
  stats.oldest_pinned_epoch = oldest == kQuiescent ? stats.epoch : oldest;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    stats.retired_pending = retired_.size();
  }
  return stats;
}

}  // namespace gpm::serving
