// SnapshotManager: epoch-based reclamation (EBR) over published graph
// snapshots — the seam that lets thousands of concurrent readers keep
// matching against version N while the writer builds N+1.
//
// Roles:
//   - The writer Publish()es finalized snapshots (typically the memoized
//     IncrementalSession::PublishSnapshot() product). Publishing installs
//     the new snapshot, advances the global epoch, and retires the old
//     snapshot onto a deferred-free list. The writer never waits for
//     readers: Publish is a pointer swap plus list bookkeeping.
//   - A reader registers once (RegisterReader -> a Reader slot), then pins
//     per request: Pin announces the reader's epoch in its own cache-line
//     slot and loads the current snapshot. While the pin is live the
//     snapshot cannot be freed; the hot path costs two atomic stores and
//     two atomic loads — no locks, no contended shared_ptr refcounts.
//     Readers never block on the writer.
//   - Retired snapshots reclaim only when their epoch drains: a snapshot
//     retired at epoch E is freed once every announced reader epoch is
//     >= E (quiescent readers announce kQuiescent = +inf). TryReclaim runs
//     automatically after each Publish and can be called explicitly.
//
// Memory-ordering contract (all protocol ops are seq_cst; they run once
// per request / per publish, so the fence cost is noise): the writer
// stores the new head *before* advancing the epoch, and a reader announces
// its epoch *before* loading the head. In the seq_cst total order, a
// reader that loaded the pre-publish head must have read the pre-publish
// epoch — so its announced epoch is < the retire epoch, and the retired
// snapshot is held back. Conversely, once every announced epoch reaches
// the retire epoch, no pin can reference it and the free is safe.
//
// Epoch contract: a pin never reports an epoch the manager has not
// published (pin.epoch() <= epoch()). A reader that pins between the
// writer's two stores holds the new head before the epoch moves, so it
// completes the publication itself: it raises the epoch to its pinned
// head's (a CAS that only ever raises it, and only to a head already
// stored). The safety argument above is unchanged — an epoch a reader
// can read is still never ahead of the head it then loads.
//
// Limits: one live Pin per Reader at a time (re-pinning re-announces the
// slot); the slot table is fixed at construction (RegisterReader fails
// past max_readers); destroying the manager with live pins outstanding is
// undefined (tear down readers first).

#ifndef GPM_SERVING_SNAPSHOT_MANAGER_H_
#define GPM_SERVING_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

#include "graph/graph.h"

namespace gpm::serving {

/// \brief Epoch-based snapshot lifecycle: readers pin, the writer
/// publishes, retired snapshots free when their epoch drains.
class SnapshotManager {
 public:
  /// The announced epoch of a quiescent (unpinned) reader slot.
  static constexpr uint64_t kQuiescent = ~uint64_t{0};

  /// Starts at epoch 1 holding `initial` (must be non-null and finalized).
  explicit SnapshotManager(std::shared_ptr<const Graph> initial,
                           size_t max_readers = 128);
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

 private:
  /// One immutable published version. Never mutated after Publish, so
  /// readers may copy `graph` concurrently without synchronization.
  struct VersionNode {
    std::shared_ptr<const Graph> graph;
    uint64_t epoch = 0;         ///< epoch at which this became current
    uint64_t retire_epoch = 0;  ///< epoch at which it stopped being current
  };

  /// Per-reader epoch announcement, padded to its own cache line so
  /// readers never bounce each other's announcements.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kQuiescent};
    std::atomic<bool> registered{false};
  };

 public:
  /// \brief A live pin: guarantees graph() stays valid until release.
  /// Move-only RAII; falsy when default-constructed or released.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept : slot_(other.slot_), node_(other.node_) {
      other.slot_ = nullptr;
      other.node_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        slot_ = other.slot_;
        node_ = other.node_;
        other.slot_ = nullptr;
        other.node_ = nullptr;
      }
      return *this;
    }
    ~Pin() { Release(); }

    explicit operator bool() const { return node_ != nullptr; }

    /// The pinned snapshot (valid for the lifetime of the pin). The
    /// borrow is free — no refcount traffic on the serve hot path.
    const Graph& graph() const { return *node_->graph; }

    /// An owning reference outliving the pin (one refcount increment) —
    /// for callers that retain the snapshot, e.g. result verification.
    std::shared_ptr<const Graph> graph_ref() const { return node_->graph; }

    /// Epoch at which the pinned snapshot was published.
    uint64_t epoch() const { return node_->epoch; }

    /// Ends the pin early (idempotent): the reader goes quiescent and the
    /// snapshot becomes reclaimable once every pin of its era drains.
    void Release() {
      if (slot_ != nullptr) {
        slot_->epoch.store(kQuiescent, std::memory_order_seq_cst);
      }
      slot_ = nullptr;
      node_ = nullptr;
    }

   private:
    friend class SnapshotManager;
    Pin(Slot* slot, const VersionNode* node) : slot_(slot), node_(node) {}

    Slot* slot_ = nullptr;
    const VersionNode* node_ = nullptr;
  };

  /// \brief A registered reader: owns one announcement slot. Move-only;
  /// the slot frees on destruction. At most one live Pin at a time.
  class Reader {
   public:
    Reader() = default;
    Reader(Reader&& other) noexcept
        : manager_(other.manager_), slot_(other.slot_) {
      other.manager_ = nullptr;
      other.slot_ = nullptr;
    }
    Reader& operator=(Reader&& other) noexcept {
      if (this != &other) {
        Unregister();
        manager_ = other.manager_;
        slot_ = other.slot_;
        other.manager_ = nullptr;
        other.slot_ = nullptr;
      }
      return *this;
    }
    ~Reader() { Unregister(); }

    /// False for a default-constructed reader or when registration failed
    /// (slot table full).
    bool valid() const { return slot_ != nullptr; }

    /// Announces this reader's epoch and borrows the current snapshot.
    /// Wait-free with respect to the writer (a Publish racing the
    /// announce just re-announces; both outcomes are safe).
    Pin PinSnapshot();

   private:
    friend class SnapshotManager;
    Reader(SnapshotManager* manager, Slot* slot)
        : manager_(manager), slot_(slot) {}

    void Unregister() {
      if (slot_ != nullptr) {
        slot_->epoch.store(kQuiescent, std::memory_order_seq_cst);
        slot_->registered.store(false, std::memory_order_release);
      }
      manager_ = nullptr;
      slot_ = nullptr;
    }

    SnapshotManager* manager_ = nullptr;
    Slot* slot_ = nullptr;
  };

  /// Claims a free reader slot; the returned Reader is invalid when all
  /// max_readers slots are taken.
  Reader RegisterReader();

  /// Installs `next` (non-null, finalized) as the current snapshot,
  /// advances the epoch, retires the previous snapshot, and opportunistically
  /// reclaims whatever has drained. Serialized internally; never waits for
  /// readers.
  void Publish(std::shared_ptr<const Graph> next);

  /// Frees every retired snapshot whose retire epoch has drained (all
  /// announced reader epochs >= it). Returns the number freed.
  size_t TryReclaim();

  /// \brief Observability snapshot.
  struct Stats {
    uint64_t epoch = 0;           ///< current (latest published) epoch
    uint64_t published = 0;       ///< Publish calls (excludes the initial)
    uint64_t reclaimed = 0;       ///< retired snapshots freed so far
    uint64_t retired_pending = 0; ///< retired, waiting for their epoch to drain
    uint64_t active_pins = 0;     ///< slots currently announcing an epoch
    /// Oldest announced epoch (== epoch when no pin is older; epoch -
    /// oldest_pinned_epoch is the serving lag in epochs). Equal to
    /// `epoch` when nothing is pinned.
    uint64_t oldest_pinned_epoch = 0;
  };
  Stats stats() const;

  /// Current epoch (== the latest published snapshot's epoch).
  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  /// Test-only: `hook` runs inside every later Publish between its head
  /// store and its epoch store — the window in which a racing reader can
  /// pin the new snapshot before the epoch moves. Empty clears it.
  void SetPublishHookForTesting(std::function<void()> hook);

 private:
  size_t ReclaimLocked();
  uint64_t OldestAnnounced() const;  // kQuiescent when nothing is pinned

  std::atomic<const VersionNode*> head_{nullptr};
  std::atomic<uint64_t> epoch_{1};

  const size_t max_readers_;
  std::unique_ptr<Slot[]> slots_;

  /// Serializes Publish/TryReclaim (the writer side only; readers never
  /// touch it).
  mutable std::mutex writer_mu_;
  std::unique_ptr<VersionNode> head_owner_;          // guarded by writer_mu_
  std::deque<std::unique_ptr<VersionNode>> retired_; // guarded by writer_mu_
  std::function<void()> publish_hook_;               // guarded by writer_mu_

  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> reclaimed_{0};
};

}  // namespace gpm::serving

#endif  // GPM_SERVING_SNAPSHOT_MANAGER_H_
