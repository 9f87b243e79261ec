// The STAR engine over real TCP sockets (single process, loopback,
// ephemeral ports): the phase-switching protocol, replication convergence,
// and fail-stop handling must work unchanged on the deployment substrate.

#include <gtest/gtest.h>

#include <thread>

#include "core/engine.h"
#include "tests/test_util.h"
#include "workload/ycsb.h"

namespace star {
namespace {

YcsbOptions SmallYcsb() {
  YcsbOptions o;
  o.rows_per_partition = 1000;
  return o;
}

StarOptions TcpStar() {
  StarOptions o;
  o.cluster.full_replicas = 1;
  o.cluster.partial_replicas = 3;
  o.cluster.workers_per_node = 2;
  o.cross_fraction = 0.1;
  o.transport = net::TransportKind::kTcp;  // ephemeral loopback ports
  o.fence_timeout_ms = 2000;
  return o;
}

TEST(TcpEngine, CommitsAndConvergesOverLoopback) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = TcpStar();
  StarEngine engine(o, wl);
  engine.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  engine.ResetStats();
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  Metrics m = engine.Stop();

  EXPECT_GT(m.committed, 100u) << "STAR must commit over TCP";
  EXPECT_GT(m.cross_partition, 0u) << "single-master phase must run";
  EXPECT_GT(m.network_bytes, 0u) << "traffic must be accounted";
  EXPECT_EQ(m.network_dropped_messages, 0u)
      << "no fail-stop drops without failures";

  // Replicas of every partition must agree after the final drain.
  Database* full = engine.database(0);
  int compared = 0;
  for (int node = 1; node < o.cluster.nodes(); ++node) {
    Database* db = engine.database(node);
    for (int p = 0; p < o.cluster.num_partitions(); ++p) {
      if (!db->HasPartition(p)) continue;
      EXPECT_EQ(testutil::DatabasePartitionChecksum(*db, p),
                testutil::DatabasePartitionChecksum(*full, p))
          << "node " << node << " partition " << p;
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

// Stop() right after Start() over TCP: no node is written off and Stop
// returns well inside a fence timeout (see StarEngine.StopRightAfterStart).
TEST(TcpEngine, StopRightAfterStart) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = TcpStar();
  for (int i = 0; i < 20; ++i) {
    StarEngine engine(o, wl);
    engine.Start();
    uint64_t t0 = NowNanos();
    engine.Stop();
    double ms = static_cast<double>(NowNanos() - t0) / 1e6;
    EXPECT_LT(ms, o.fence_timeout_ms / 3) << "iteration " << i;
    for (int n = 0; n < o.cluster.nodes(); ++n) {
      EXPECT_TRUE(engine.IsNodeHealthy(n))
          << "iteration " << i << ": node " << n << " written off";
    }
  }
}

TEST(TcpEngine, SurvivesInjectedFailureOverLoopback) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = TcpStar();
  o.two_version = true;
  o.fence_timeout_ms = 500;  // quick detection
  StarEngine engine(o, wl);
  engine.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  engine.InjectFailure(3);
  uint64_t deadline = NowNanos() + MillisToNanos(10000);
  while (engine.IsNodeHealthy(3) && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_FALSE(engine.IsNodeHealthy(3)) << "fence must detect the failure";
  EXPECT_EQ(engine.state(), SystemState::kRunning);

  // Drops happen in the window between the cut and the view change that
  // removes the node from the replication targets, so check the cumulative
  // transport counter (ResetStats would have consumed the window).
  EXPECT_GT(engine.transport()->dropped_messages(), 0u)
      << "sends to the failed node must surface in the drop accounting";

  engine.ResetStats();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  Metrics m = engine.Stop();
  EXPECT_GT(m.committed, 0u) << "survivors keep committing over TCP";
}

}  // namespace
}  // namespace star
