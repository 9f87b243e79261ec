// End-to-end StarEngine integration: phase switching, group commit, replica
// convergence, hybrid replication, durability (Sections 3-5).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "tests/test_util.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace star {
namespace {

YcsbOptions SmallYcsb() {
  YcsbOptions o;
  o.rows_per_partition = 2000;
  return o;
}

StarOptions FastStar() {
  StarOptions o;
  o.cluster.full_replicas = 1;
  o.cluster.partial_replicas = 3;
  o.cluster.workers_per_node = 2;
  o.iteration_ms = 10;
  o.cross_fraction = 0.1;
  return o;
}

Metrics RunFor(StarEngine& engine, int warm_ms, int run_ms) {
  engine.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(warm_ms));
  engine.ResetStats();
  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
  return engine.Stop();
}

void ExpectReplicasConverged(StarEngine& engine, int nodes,
                             int partitions) {
  for (int p = 0; p < partitions; ++p) {
    uint64_t expect = 0;
    bool first = true;
    for (int n = 0; n < nodes; ++n) {
      Database* db = engine.database(n);
      if (!db->HasPartition(p)) continue;
      uint64_t sum = testutil::DatabasePartitionChecksum(*db, p);
      if (first) {
        expect = sum;
        first = false;
      } else {
        EXPECT_EQ(sum, expect) << "replica divergence: partition " << p
                               << " on node " << n;
      }
    }
  }
}

TEST(StarEngine, CommitsBothTransactionClasses) {
  YcsbWorkload wl(SmallYcsb());
  StarEngine engine(FastStar(), wl);
  Metrics m = RunFor(engine, 200, 1000);
  EXPECT_GT(m.committed, 1000u);
  EXPECT_GT(m.single_partition, 0u);
  EXPECT_GT(m.cross_partition, 0u);
  EXPECT_GT(engine.fence_count(), 5u) << "phases must alternate";
  EXPECT_GT(engine.epoch(), 5u) << "each fence advances the epoch";
}

TEST(StarEngine, AchievedMixTracksP) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cross_fraction = 0.2;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 500, 1500);
  double achieved =
      static_cast<double>(m.cross_partition) / m.committed;
  EXPECT_NEAR(achieved, 0.2, 0.1)
      << "Equations (1)-(2) should steer the committed mix towards P";
}

TEST(StarEngine, PZeroRunsPartitionedOnly) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cross_fraction = 0.0;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 200, 800);
  EXPECT_GT(m.committed, 0u);
  EXPECT_EQ(m.cross_partition, 0u);
  EXPECT_DOUBLE_EQ(engine.current_tau_s_ms(), 0.0)
      << "P=0 sets tau_p=e, tau_s=0 (Section 4.3)";
}

// Stop() right after Start(), before the coordinator's first fence: the
// coordinator may still run a phase and a fence on its way out, and every
// worker must be there to answer it, so no node is written off and Stop
// returns without waiting out a fence timeout.
TEST(StarEngine, StopRightAfterStart) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
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

// A node's phase word bumped to kStopped (here a self-park) right before a
// fence: the fence must move the word past the bumped sequence number, or
// the workers, already parked on it, never park again for the fence and the
// node misses it.  Long partitioned phases (P = 0) put the park between a
// phase start and its fence.
TEST(StarEngine, FenceAfterSelfParkIsAnswered) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cross_fraction = 0;
  o.iteration_ms = 600;
  StarEngine engine(o, wl);
  engine.Start();
  uint64_t deadline = NowNanos() + MillisToNanos(10000);
  uint64_t f0 = engine.fence_count();
  while (engine.fence_count() == f0 && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(engine.fence_count(), f0) << "no fence completed";
  // The next phase start is handled within milliseconds; its fence follows
  // ~600 ms later.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  engine.SelfParkNode(1);
  const uint64_t f1 = engine.fence_count();
  const uint64_t t0 = NowNanos();
  deadline = t0 + MillisToNanos(2 * o.iteration_ms + o.fence_timeout_ms);
  while (engine.fence_count() < f1 + 2 && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double ms = static_cast<double>(NowNanos() - t0) / 1e6;
  EXPECT_GE(engine.fence_count(), f1 + 2);
  EXPECT_LT(ms, 2 * o.iteration_ms + o.fence_timeout_ms / 2)
      << "a fence waited out its timeout";
  EXPECT_TRUE(engine.IsNodeHealthy(1)) << "the parked node was written off";
  engine.Stop();
}

TEST(StarEngine, ReplicasConvergeAfterStop) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  StarEngine engine(o, wl);
  RunFor(engine, 200, 1000);
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());
}

TEST(StarEngine, ReplicasConvergeUnderHybridReplication) {
  TpccOptions topt;
  topt.districts_per_warehouse = 4;
  topt.customers_per_district = 100;
  topt.items = 500;
  TpccWorkload wl(topt);
  StarOptions o = FastStar();
  o.replication = ReplicationMode::kHybrid;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 300, 1200);
  EXPECT_GT(m.committed, 100u);
  // Operation replication must reproduce the primary state exactly.
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());
}

TEST(StarEngine, HybridShipsFewerBytesThanValue) {
  TpccOptions topt;
  topt.districts_per_warehouse = 4;
  topt.customers_per_district = 100;
  topt.items = 500;
  TpccWorkload wl(topt);
  double value_bytes, hybrid_bytes;
  {
    StarOptions o = FastStar();
    StarEngine engine(o, wl);
    Metrics m = RunFor(engine, 300, 1000);
    ASSERT_GT(m.committed, 0u);
    value_bytes = m.BytesPerCommit();
  }
  {
    StarOptions o = FastStar();
    o.replication = ReplicationMode::kHybrid;
    StarEngine engine(o, wl);
    Metrics m = RunFor(engine, 300, 1000);
    ASSERT_GT(m.committed, 0u);
    hybrid_bytes = m.BytesPerCommit();
  }
  EXPECT_LT(hybrid_bytes, value_bytes * 0.85)
      << "hybrid replication should significantly cut TPC-C bytes "
         "(Section 5)";
}

TEST(StarEngine, GroupCommitLatencyTracksIterationTime) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.iteration_ms = 20;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 300, 1200);
  ASSERT_GT(m.latency.count(), 0u);
  // Release happens at the next phase switch: latency is on the order of
  // the iteration time (plus fence overhead), never far below it.
  EXPECT_GT(m.latency.p50(), MillisToNanos(2));
  EXPECT_LT(m.latency.p50(), MillisToNanos(500));
}

TEST(StarEngine, TpccMoneyInvariantsHold) {
  TpccOptions topt;
  topt.districts_per_warehouse = 4;
  topt.customers_per_district = 100;
  topt.items = 500;
  TpccWorkload wl(topt);
  StarOptions o = FastStar();
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 300, 1500);
  ASSERT_GT(m.committed, 100u);

  // Serializability witnesses on the full replica (node 0): Payment adds
  // the same amount to a warehouse and one of its districts, and every
  // customer satisfies balance + ytd_payment == 0.
  Database* db = engine.database(0);
  for (int p = 0; p < o.cluster.num_partitions(); ++p) {
    WarehouseRow w;
    db->table(TpccWorkload::kWarehouse, p)->GetRow(0).ReadStable(&w);
    double dsum = 0;
    for (int d = 0; d < topt.districts_per_warehouse; ++d) {
      DistrictRow dr;
      db->table(TpccWorkload::kDistrict, p)
          ->GetRow(wl.DistrictKey(d))
          .ReadStable(&dr);
      dsum += dr.ytd - 30000.0;
    }
    EXPECT_NEAR(w.ytd - 300000.0, dsum, 0.5) << "warehouse " << p;
    for (int d = 0; d < topt.districts_per_warehouse; ++d) {
      for (int c = 0; c < topt.customers_per_district; c += 7) {
        CustomerRow cr;
        db->table(TpccWorkload::kCustomer, p)
            ->GetRow(wl.CustomerKey(d, c))
            .ReadStable(&cr);
        EXPECT_NEAR(cr.balance + cr.ytd_payment, 0.0, 0.01)
            << "customer (" << p << "," << d << "," << c << ")";
      }
    }
  }
}

TEST(StarEngine, AllCrossPartitionMixCommitsAndConverges) {
  // P = 1: every transaction is cross-partition, so the controller must run
  // a pure single-master schedule (tau_p = 0) without stalling — the
  // regression mode for the tau bootstrap going non-positive.
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cross_fraction = 1.0;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 200, 1000);
  EXPECT_GT(m.committed, 100u);
  EXPECT_EQ(m.single_partition, 0u);
  EXPECT_GT(m.cross_partition, 0u);
  EXPECT_GT(engine.fence_count(), 5u) << "fences must keep cycling at P=1";
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());
}

TEST(StarEngine, NearOneCrossFractionStillRunsBothPhases) {
  // P close to 1 must clamp the bootstrap so the partitioned phase keeps a
  // min_phase_ms share instead of being starved from the first iteration.
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cross_fraction = 0.99;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 200, 1000);
  EXPECT_GT(m.committed, 100u);
  EXPECT_GE(engine.current_tau_p_ms(), o.min_phase_ms * 0.99);
  EXPECT_GE(engine.current_tau_s_ms(), o.min_phase_ms * 0.99);
}

TEST(StarEngine, ResetStatsClearsLatencyAndFenceTimers) {
  // Regression: ResetStats used to keep warm-up latency samples (and fence
  // timer accumulations), polluting every measured window.
  YcsbWorkload wl(SmallYcsb());
  StarEngine engine(FastStar(), wl);
  Metrics m = RunFor(engine, 200, 600);
  ASSERT_GT(m.committed, 0u);
  ASSERT_GT(m.latency.count(), 0u);
  engine.ResetStats();
  Metrics after = engine.Snapshot();
  EXPECT_EQ(after.committed, 0u);
  EXPECT_EQ(after.latency.count(), 0u)
      << "Snapshot after ResetStats must not see old latency samples";
  EXPECT_EQ(engine.fence_stop_ns(), 0u);
  EXPECT_EQ(engine.fence_drain_ns(), 0u);
  EXPECT_EQ(engine.fence_count(), 0u);
}

TEST(StarEngine, FullMixReplicasConvergeIndexVisible) {
  // The full five-transaction TPC-C mix end-to-end: Delivery's scans +
  // deletes and NewOrder's index-maintained inserts must leave every
  // replica's ordered indexes returning identical visible sequences after
  // the final fence.
  TpccOptions topt;
  topt.districts_per_warehouse = 4;
  topt.customers_per_district = 60;
  topt.items = 300;
  topt.full_mix = true;
  TpccWorkload wl(topt);
  StarOptions o = FastStar();
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 300, 1500);
  ASSERT_GT(m.committed, 100u);
  EXPECT_GT(wl.generated(TpccWorkload::kClassDelivery), 0u);
  EXPECT_GT(wl.generated(TpccWorkload::kClassOrderStatus), 0u);
  EXPECT_GT(wl.generated(TpccWorkload::kClassStockLevel), 0u);
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());

  // Index-visible convergence: what a Scan returns — (key, tid) over
  // visible records — matches on every replica of each partition, for every
  // ordered table.
  for (int p = 0; p < o.cluster.num_partitions(); ++p) {
    for (int t : {static_cast<int>(TpccWorkload::kNewOrder),
                  static_cast<int>(TpccWorkload::kOrderLine),
                  static_cast<int>(TpccWorkload::kOrderCustIndex)}) {
      std::vector<std::pair<uint64_t, uint64_t>> expect;
      bool first = true;
      for (int n = 0; n < o.cluster.nodes(); ++n) {
        Database* db = engine.database(n);
        if (!db->HasPartition(p)) continue;
        HashTable* ht = db->table(t, p);
        ASSERT_NE(ht->index(), nullptr);
        std::vector<std::pair<uint64_t, uint64_t>> got;
        ht->index()->Scan(0, ~0ull, [&](uint64_t key, Record* rec) {
          uint64_t w = rec->LoadWord();
          if (!Record::IsAbsent(w)) got.emplace_back(key, Record::TidOf(w));
          return true;
        });
        if (first) {
          expect = std::move(got);
          first = false;
        } else {
          EXPECT_EQ(got, expect) << "index divergence: table " << t
                                 << " partition " << p << " node " << n;
        }
      }
      EXPECT_FALSE(first) << "partition stored nowhere?";
    }
  }
}

TEST(StarEngine, DurableLoggingRecoversCommittedState) {
  std::string dir = "/tmp/star_engine_test_logs";
  std::filesystem::remove_all(dir);
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  // Pin the inline serial applier: this test recovers from the worker and
  // io-thread WAL lanes only (shard-lane recovery is covered by
  // ShardedReplayLogsToPerShardWalsAndRecovers).
  o.cluster.replay_shards = 1;
  o.durable_logging = true;
  o.checkpointing = true;  // base data reaches disk via the checkpointer
  o.checkpoint_period_ms = 150;
  o.log_dir = dir;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 200, 800);
  ASSERT_GT(m.committed, 0u);

  // Rebuild node 1's partitions from its logs (Case 4 recovery) and compare
  // to the in-memory replica.
  Database* live = engine.database(1);
  Database rebuilt(wl.Schemas(), o.cluster.num_partitions(),
                   [&] {
                     std::vector<int> parts;
                     for (int p = 0; p < o.cluster.num_partitions(); ++p) {
                       if (live->HasPartition(p)) parts.push_back(p);
                     }
                     return parts;
                   }(),
                   false);
  wal::RecoveryResult r = wal::Recover(&rebuilt, dir, 1);
  EXPECT_GT(r.committed_epoch, 0u);
  EXPECT_GT(r.log_entries_replayed, 0u);

  // The recovered state equals the live replica at the recovered epoch for
  // every record whose TID is within the committed epoch.  Since the engine
  // stopped cleanly, every record with epoch <= committed must match.
  for (int p = 0; p < o.cluster.num_partitions(); ++p) {
    if (!live->HasPartition(p)) continue;
    HashTable* lt = live->table(0, p);
    std::string scratch(lt->value_size(), '\0');
    int checked = 0;
    lt->ForEach([&](uint64_t key, Record* rec, char* value) {
      uint64_t w = rec->ReadStable(scratch.data(), scratch.size(), value);
      if (Record::IsAbsent(w)) return;
      if (Tid::Epoch(Record::TidOf(w)) > r.committed_epoch) return;
      // Never-written records reach disk only through a checkpoint; skip
      // them if the run stopped before one completed.
      if (Record::TidOf(w) == Database::kLoadTid &&
          r.checkpoint_entries == 0) {
        return;
      }
      HashTable::Row rrow = rebuilt.table(0, p)->GetRow(key);
      ASSERT_TRUE(rrow.valid()) << "missing key " << key;
      std::string rv(rrow.size, '\0');
      uint64_t rw = rrow.rec->ReadStable(rv.data(), rv.size(), rrow.value);
      EXPECT_EQ(Record::TidOf(rw), Record::TidOf(w));
      EXPECT_EQ(rv, scratch);
      ++checked;
    });
    EXPECT_GT(checked, 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(StarEngine, ShardedReplayLogsToPerShardWalsAndRecovers) {
  // With durable logging, each replay worker owns a log lane (workers,
  // then io threads, then shards) that multiplexes into the logger pool's
  // per-shard WAL files; the fence's epoch markers cover them, so Case-4
  // recovery over ALL the node's logs still reaches a nonzero committed
  // epoch and replays replicated writes.
  std::string dir = "/tmp/star_engine_sharded_wal_logs";
  std::filesystem::remove_all(dir);
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cluster.replay_shards = 2;
  o.durable_logging = true;
  o.log_workers = 2;  // two logger threads -> two shard WAL files per node
  o.log_dir = dir;
  StarEngine engine(o, wl);
  Metrics m = RunFor(engine, 200, 800);
  ASSERT_GT(m.committed, 0u);
  EXPECT_GT(m.wal_bytes, 0u);
  EXPECT_GT(m.wal_epoch_markers, 0u);
  EXPECT_GT(m.durable_epoch, 0u)
      << "a clean run's fences must have advanced the cluster durable epoch";

  // Node 1 is a replica target: both of its logger shard files (fresh
  // incarnation 1) must exist and hold the applied replication.
  uintmax_t shard_wal_bytes = 0;
  for (int s = 0; s < o.log_workers; ++s) {
    std::string path = wal::LoggerPool::ShardPath(dir, 1, /*inc=*/1, s);
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    shard_wal_bytes += std::filesystem::file_size(path);
  }
  EXPECT_GT(shard_wal_bytes, 0u)
      << "logger threads must persist what the lanes publish";

  Database* live = engine.database(1);
  Database rebuilt(wl.Schemas(), o.cluster.num_partitions(),
                   [&] {
                     std::vector<int> parts;
                     for (int p = 0; p < o.cluster.num_partitions(); ++p) {
                       if (live->HasPartition(p)) parts.push_back(p);
                     }
                     return parts;
                   }(),
                   false);
  wal::RecoveryResult r = wal::Recover(&rebuilt, dir, 1);
  EXPECT_GT(r.committed_epoch, 0u);
  EXPECT_GT(r.log_entries_replayed, 0u);
  std::filesystem::remove_all(dir);
}

TEST(StarEngine, DefaultReplayAutosizesToShardedPipeline) {
  // replay_shards = 0 (the default) derives a shard count from the host
  // core budget and always takes the sharded pipeline — on a 1-core host it
  // degrades to a single prefetched replay worker, never the inline apply.
  YcsbWorkload wl(SmallYcsb());
  StarEngine engine(FastStar(), wl);
  int expect = ResolveReplayShards(0);
  EXPECT_GE(expect, 1);
  for (int n = 0; n < FastStar().cluster.nodes(); ++n) {
    ASSERT_NE(engine.sharded_applier(n), nullptr)
        << "autosized default must run the sharded pipeline";
    EXPECT_EQ(engine.sharded_applier(n)->shards(), expect);
  }
}

TEST(StarEngine, ExplicitSingleShardKeepsInlineSerialApply) {
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cluster.replay_shards = 1;
  StarEngine engine(o, wl);
  for (int n = 0; n < o.cluster.nodes(); ++n) {
    EXPECT_EQ(engine.sharded_applier(n), nullptr)
        << "replay_shards=1 must keep today's io-thread inline apply";
  }
}

TEST(StarEngine, ShardedReplayConvergesAndMatchesSerial) {
  // The same workload/seed run with the serial applier and with the 4-shard
  // replay pipeline must both converge; sharding only changes *how* the
  // replica drains its stream, never what state it reaches.
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cluster.replay_shards = 4;
  StarEngine engine(o, wl);
  for (int n = 0; n < o.cluster.nodes(); ++n) {
    EXPECT_NE(engine.sharded_applier(n), nullptr);
    EXPECT_EQ(engine.sharded_applier(n)->shards(), 4);
  }
  Metrics m = RunFor(engine, 200, 1000);
  EXPECT_GT(m.committed, 100u);
  EXPECT_GT(engine.fence_count(), 2u);
  EXPECT_EQ(m.replication_ignored_batches, 0u)
      << "no batch may be dropped outside failure experiments";
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());
}

TEST(StarEngine, FenceCompletesWithBackloggedReplayQueues) {
  // The replay-aware fence: with every replay worker deliberately stalled,
  // shard queues build a backlog behind each fence — the drain round must
  // wait for the queues (applied counters lag sent) instead of declaring
  // the stream drained, and the run must still converge.
  YcsbWorkload wl(SmallYcsb());
  StarOptions o = FastStar();
  o.cluster.replay_shards = 2;
  StarEngine engine(o, wl);
  engine.Start();
  for (int n = 0; n < o.cluster.nodes(); ++n) {
    ASSERT_NE(engine.sharded_applier(n), nullptr);
    engine.sharded_applier(n)->set_apply_delay_ns_for_test(3'000'000);  // 3ms
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  uint64_t fences_while_stalled = engine.fence_count();
  for (int n = 0; n < o.cluster.nodes(); ++n) {
    engine.sharded_applier(n)->set_apply_delay_ns_for_test(0);
  }
  Metrics m = engine.Stop();
  EXPECT_GT(m.committed, 0u);
  EXPECT_GT(fences_while_stalled, 0u)
      << "fences must complete while replay queues are backlogged";
  ExpectReplicasConverged(engine, o.cluster.nodes(),
                          o.cluster.num_partitions());
}

}  // namespace
}  // namespace star
