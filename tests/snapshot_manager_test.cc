// SnapshotManager: the epoch-based snapshot lifecycle — pin/publish/
// reclaim ordering, no-free-while-pinned, slot-table limits, stats, and
// a multi-thread pin/publish hammer.

#include "serving/snapshot_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace gpm::serving {
namespace {

using testutil::MakeGraph;

std::shared_ptr<const Graph> SmallGraph(Label label) {
  return std::make_shared<const Graph>(MakeGraph({label, label}, {{0, 1}}));
}

/// A graph wrapper whose destruction flips a flag — how the tests observe
/// the exact moment reclamation frees a snapshot.
std::shared_ptr<const Graph> TrackedGraph(std::atomic<bool>* freed) {
  return std::shared_ptr<const Graph>(
      new Graph(MakeGraph({1, 2}, {{0, 1}})),
      [freed](const Graph* g) {
        freed->store(true);
        delete g;
      });
}

TEST(SnapshotManagerTest, PinSeesCurrentSnapshotAndEpoch) {
  SnapshotManager manager(SmallGraph(7), /*max_readers=*/4);
  EXPECT_EQ(manager.epoch(), 1u);
  auto reader = manager.RegisterReader();
  ASSERT_TRUE(reader.valid());
  {
    auto pin = reader.PinSnapshot();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin.epoch(), 1u);
    EXPECT_EQ(pin.graph().label(0), 7u);
  }
  manager.Publish(SmallGraph(9));
  EXPECT_EQ(manager.epoch(), 2u);
  auto pin = reader.PinSnapshot();
  EXPECT_EQ(pin.epoch(), 2u);
  EXPECT_EQ(pin.graph().label(0), 9u);
}

TEST(SnapshotManagerTest, RetiredSnapshotSurvivesWhilePinned) {
  std::atomic<bool> freed{false};
  SnapshotManager manager(TrackedGraph(&freed), /*max_readers=*/4);
  auto reader = manager.RegisterReader();
  auto pin = reader.PinSnapshot();  // pins epoch 1

  manager.Publish(SmallGraph(1));  // retires the tracked snapshot
  manager.TryReclaim();
  EXPECT_FALSE(freed.load()) << "freed while a reader still pinned it";
  EXPECT_EQ(manager.stats().retired_pending, 1u);

  // The pinned borrow still reads valid data.
  EXPECT_EQ(pin.graph().num_nodes(), 2u);

  pin.Release();  // the epoch drains...
  manager.TryReclaim();
  EXPECT_TRUE(freed.load());  // ...and only now is it freed
  EXPECT_EQ(manager.stats().retired_pending, 0u);
  EXPECT_EQ(manager.stats().reclaimed, 1u);
}

TEST(SnapshotManagerTest, QuiescentReadersDoNotHoldAnything) {
  std::atomic<bool> freed{false};
  SnapshotManager manager(TrackedGraph(&freed), /*max_readers=*/4);
  auto reader = manager.RegisterReader();  // registered but never pinned
  manager.Publish(SmallGraph(1));
  EXPECT_TRUE(freed.load()) << "quiescent reader blocked reclamation";
}

TEST(SnapshotManagerTest, RepinMovesToTheNewEpoch) {
  std::atomic<bool> freed{false};
  SnapshotManager manager(TrackedGraph(&freed), /*max_readers=*/4);
  auto reader = manager.RegisterReader();
  auto pin = reader.PinSnapshot();
  manager.Publish(SmallGraph(1));
  // Re-pinning the same reader releases the old era implicitly.
  pin = reader.PinSnapshot();
  EXPECT_EQ(pin.epoch(), 2u);
  manager.TryReclaim();
  EXPECT_TRUE(freed.load());
}

TEST(SnapshotManagerTest, SlotTableIsBounded) {
  SnapshotManager manager(SmallGraph(1), /*max_readers=*/2);
  auto a = manager.RegisterReader();
  auto b = manager.RegisterReader();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(manager.RegisterReader().valid());
  // Destroying a reader frees its slot for the next registration.
  a = SnapshotManager::Reader();
  EXPECT_TRUE(manager.RegisterReader().valid());
}

TEST(SnapshotManagerTest, StatsTrackPinsAndLag) {
  SnapshotManager manager(SmallGraph(1), /*max_readers=*/4);
  auto r1 = manager.RegisterReader();
  auto r2 = manager.RegisterReader();
  auto old_pin = r1.PinSnapshot();  // epoch 1
  manager.Publish(SmallGraph(2));
  manager.Publish(SmallGraph(3));
  auto new_pin = r2.PinSnapshot();  // epoch 3

  const auto stats = manager.stats();
  EXPECT_EQ(stats.epoch, 3u);
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.active_pins, 2u);
  EXPECT_EQ(stats.oldest_pinned_epoch, 1u);  // lag of 2 epochs
  EXPECT_EQ(stats.retired_pending, 2u);      // both held by the old pin
}

TEST(SnapshotManagerTest, ManyVersionsReclaimInOrder) {
  SnapshotManager manager(SmallGraph(0), /*max_readers=*/2);
  auto reader = manager.RegisterReader();
  for (Label v = 1; v <= 20; ++v) {
    auto pin = reader.PinSnapshot();
    EXPECT_EQ(pin.graph().label(0), v - 1);
    manager.Publish(SmallGraph(v));
  }
  const auto stats = manager.stats();
  EXPECT_EQ(stats.published, 20u);
  // Nothing is pinned anymore: everything retired must have been freed.
  manager.TryReclaim();
  EXPECT_EQ(manager.stats().reclaimed, 20u);
  EXPECT_EQ(manager.stats().retired_pending, 0u);
}

TEST(SnapshotManagerTest, PinInsidePublishNeverRunsAheadOfEpoch) {
  // Park the writer between its head store and its epoch store and pin
  // there: the pin already holds the new snapshot, and the manager must not
  // report an older epoch than the pin does.
  SnapshotManager manager(SmallGraph(1), /*max_readers=*/2);
  auto reader = manager.RegisterReader();
  ASSERT_TRUE(reader.valid());
  uint64_t pinned_epoch = 0;
  uint64_t manager_epoch = 0;
  Label pinned_label = 0;
  manager.SetPublishHookForTesting([&] {
    auto pin = reader.PinSnapshot();
    pinned_epoch = pin.epoch();
    pinned_label = pin.graph().label(0);
    manager_epoch = manager.epoch();
  });
  manager.Publish(SmallGraph(2));
  manager.SetPublishHookForTesting(nullptr);
  EXPECT_EQ(pinned_label, 2u);
  EXPECT_EQ(pinned_epoch, 2u);
  EXPECT_LE(pinned_epoch, manager_epoch);
  EXPECT_EQ(manager.epoch(), 2u);
  EXPECT_EQ(manager.stats().reclaimed, 1u);
}

TEST(SnapshotManagerTest, ConcurrentPinsNeverSeeFreedData) {
  // 3 reader threads hammer pin/read/release while the writer publishes
  // versioned graphs; every pinned graph must carry a consistent version
  // stamp (labels all equal), which a use-after-free would violate with
  // high probability under ASan/TSan runs.
  constexpr int kReaders = 3;
  constexpr int kVersions = 200;
  auto versioned = [](Label v) {
    return std::make_shared<const Graph>(
        MakeGraph({v, v, v}, {{0, 1}, {1, 2}}));
  };
  SnapshotManager manager(versioned(0), /*max_readers=*/kReaders);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto reader = manager.RegisterReader();
      ASSERT_TRUE(reader.valid());
      while (!stop.load(std::memory_order_relaxed)) {
        auto pin = reader.PinSnapshot();
        const Graph& g = pin.graph();
        const Label v = g.label(0);
        ASSERT_EQ(g.label(1), v);
        ASSERT_EQ(g.label(2), v);
        ASSERT_LE(pin.epoch(), manager.epoch());
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (Label v = 1; v <= kVersions; ++v) manager.Publish(versioned(v));
  // On a single-core box the publisher can finish before the readers are
  // even scheduled — keep the snapshots live until every thread has read.
  while (reads.load() < kReaders) std::this_thread::yield();
  stop.store(true);
  for (auto& t : threads) t.join();
  manager.TryReclaim();

  const auto stats = manager.stats();
  EXPECT_EQ(stats.epoch, static_cast<uint64_t>(kVersions) + 1);
  EXPECT_EQ(stats.published, static_cast<uint64_t>(kVersions));
  EXPECT_EQ(stats.reclaimed, static_cast<uint64_t>(kVersions));
  EXPECT_GT(reads.load(), 0u);
}

}  // namespace
}  // namespace gpm::serving
