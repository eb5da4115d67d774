#include "jobmgr/metaq_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "temp_path.hpp"

namespace femto::jm {
namespace {

class MetaqQueueTest : public ::testing::Test {
 protected:
  MetaqQueueTest() : root_(test_temp_path("femto_metaq")) {
    std::filesystem::remove_all(root_);
  }
  ~MetaqQueueTest() override { std::filesystem::remove_all(root_); }

  Task make_task(int id, int nodes = 4) {
    Task t;
    t.id = id;
    t.nodes = nodes;
    t.duration = 100 + id;
    return t;
  }

  std::string root_;
};

TEST_F(MetaqQueueTest, SubmitClaimFinishLifecycle) {
  MetaqQueue q(root_);
  q.submit(make_task(1));
  EXPECT_EQ(q.pending(), 1u);
  auto claimed = q.claim(8);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->task.id, 1);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.working(), 1u);
  q.finish(*claimed);
  EXPECT_EQ(q.working(), 0u);
  EXPECT_EQ(q.finished(), 1u);
}

TEST_F(MetaqQueueTest, TaskFileRoundTrip) {
  Task t;
  t.id = 42;
  t.kind = TaskKind::CpuContraction;
  t.nodes = 1;
  t.gpus_per_node = 0;
  t.cpu_slots_per_node = 16;
  t.duration = 123.5;
  const auto back = MetaqQueue::parse_task(MetaqQueue::format_task(t));
  EXPECT_EQ(back.id, 42);
  EXPECT_EQ(back.kind, TaskKind::CpuContraction);
  EXPECT_EQ(back.nodes, 1);
  EXPECT_EQ(back.cpu_slots_per_node, 16);
  EXPECT_DOUBLE_EQ(back.duration, 123.5);
}

TEST_F(MetaqQueueTest, PriorityOrderDrainsLowFirst) {
  MetaqQueue q(root_);
  q.submit(make_task(10), /*priority=*/7);
  q.submit(make_task(11), /*priority=*/1);
  q.submit(make_task(12), /*priority=*/4);
  EXPECT_EQ(q.claim(8)->task.id, 11);
  EXPECT_EQ(q.claim(8)->task.id, 12);
  EXPECT_EQ(q.claim(8)->task.id, 10);
}

TEST_F(MetaqQueueTest, ResourceFilteringSkipsBigTasks) {
  MetaqQueue q(root_);
  q.submit(make_task(1, /*nodes=*/16), 0);
  q.submit(make_task(2, /*nodes=*/2), 5);
  // Only 4 free nodes: the 16-node task is skipped even though it has
  // higher priority (this is backfilling).
  auto claimed = q.claim(4);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->task.id, 2);
  EXPECT_FALSE(q.claim(4).has_value());
  EXPECT_TRUE(q.claim(16).has_value());
}

TEST_F(MetaqQueueTest, EmptyQueueClaimsNothing) {
  MetaqQueue q(root_);
  EXPECT_FALSE(q.claim(128).has_value());
}

TEST_F(MetaqQueueTest, RequeueReturnsTaskToPending) {
  MetaqQueue q(root_);
  q.submit(make_task(5));
  auto claimed = q.claim(8);
  ASSERT_TRUE(claimed.has_value());
  q.requeue(*claimed, 0);
  EXPECT_EQ(q.working(), 0u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.claim(8)->task.id, 5);
}

TEST_F(MetaqQueueTest, FinishUnclaimedThrows) {
  MetaqQueue q(root_);
  QueuedTask fake;
  fake.name = "task_9_99";
  EXPECT_THROW(q.finish(fake), std::runtime_error);
}

TEST_F(MetaqQueueTest, ConcurrentWorkersClaimEachTaskExactlyOnce) {
  MetaqQueue q(root_);
  const int n_tasks = 60;
  for (int i = 0; i < n_tasks; ++i) q.submit(make_task(i, 1));

  std::atomic<int> claimed_total{0};
  std::vector<std::thread> workers;
  std::array<std::atomic<int>, 60> seen{};
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      MetaqQueue local(root_);  // each allocation opens the same queue dir
      while (auto t = local.claim(8)) {
        seen[static_cast<std::size_t>(t->task.id)]++;
        claimed_total++;
        local.finish(*t);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(claimed_total.load(), n_tasks);
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(q.finished(), static_cast<std::size_t>(n_tasks));
  EXPECT_EQ(q.pending(), 0u);
}

TEST_F(MetaqQueueTest, QueueSurvivesReopen) {
  {
    MetaqQueue q(root_);
    q.submit(make_task(3));
  }
  MetaqQueue q2(root_);  // fresh "allocation" sees the same state
  EXPECT_EQ(q2.pending(), 1u);
  EXPECT_EQ(q2.claim(8)->task.id, 3);
}

}  // namespace
}  // namespace femto::jm
