// Figure 15: replication strategies and fault tolerance.
//  (a) SYNC STAR vs STAR vs STAR w/ hybrid replication, TPC-C.
//  (b) throughput degradation with disk logging + checkpointing.

#include <unistd.h>

#include <filesystem>
#include <string>

#include "bench/bench_common.h"

using namespace star;
using namespace star::bench;

int main() {
  PrintHeader("Figure 15: replication and fault tolerance",
              "(a) hybrid replication ships operations in the partitioned "
              "phase (biggest win at low P); SYNC STAR pays a round trip "
              "per cross-partition commit.  (b) logging overhead: paper "
              "reports ~6% (YCSB) / ~14% (TPC-C).");
  TpccWorkload tpcc(BenchTpcc());

  std::printf("\n--- (a) replication strategies, TPC-C ---\n");
  for (double p : {0.0, 0.1, 0.5, 0.9}) {
    {
      StarOptions o = DefaultStar(p);
      o.replication = ReplicationMode::kSyncValue;
      StarEngine e(o, tpcc);
      PrintRow("SYNC STAR", p * 100, Measure(e));
    }
    {
      StarOptions o = DefaultStar(p);
      StarEngine e(o, tpcc);
      PrintRow("STAR", p * 100, Measure(e));
    }
    {
      StarOptions o = DefaultStar(p);
      o.replication = ReplicationMode::kHybrid;
      StarEngine e(o, tpcc);
      PrintRow("STAR w/ Hybrid", p * 100, Measure(e));
    }
  }

  std::printf("\n--- (a') parallel replication replay: fence drain time ---\n");
  // The fence's drain round waits for replicas to finish applying the
  // phase's writes (Section 4.3); parallel replay shortens it wherever the
  // replica has cores to drain with.  (On a single-cpu host the replay
  // workers time-slice one core, so treat these rows as a correctness /
  // overhead check, not a scaling result — bench/applier_substrate isolates
  // the apply-path speedup.)
  for (int shards : {1, 4}) {
    StarOptions o = DefaultStar(0.1);
    o.cluster.replay_shards = shards;
    StarEngine e(o, tpcc);
    Metrics m = Measure(e);
    double drain_ms = e.fence_drain_ns() / 1e6;
    double per_fence_us =
        e.fence_count() > 0 ? e.fence_drain_ns() / 1e3 / e.fence_count() : 0;
    std::printf("replay shards=%d  %10.0f txns/sec  drain %7.2f ms total"
                "  (%6.1f us/fence, %llu fences)\n",
                shards, m.Tps(), drain_ms, per_fence_us,
                static_cast<unsigned long long>(e.fence_count()));
    JsonLog::Instance().Row(
        {{"system", shards == 1 ? "STAR serial replay" : "STAR 4-shard replay"},
         {"replay_shards", JsonLog::Format(shards)},
         {"tps", JsonLog::Format(m.Tps())},
         {"fence_drain_ms", JsonLog::Format(drain_ms)},
         {"fence_drain_us_per_fence", JsonLog::Format(per_fence_us)}});
  }

  std::printf("\n--- (b) disk logging + checkpointing overhead ---\n");
  YcsbWorkload ycsb(BenchYcsb());
  auto run = [&](const char* name, const Workload& wl, bool durable) {
    StarOptions o = DefaultStar(0.1);
    o.durable_logging = durable;
    o.checkpointing = durable;
    // Only throughput is reported, so the run's WAL and checkpoints go to a
    // per-process directory that is deleted afterwards.
    o.log_dir = "/tmp/star_bench_logs/run_" + std::to_string(::getpid());
    StarEngine e(o, wl);
    Metrics m = Measure(e);
    if (durable) std::filesystem::remove_all(o.log_dir);
    std::printf("%-24s %12.0f txns/sec\n", name, m.Tps());
    return m.Tps();
  };
  double y0 = run("YCSB", ycsb, false);
  double y1 = run("YCSB + disk logging", ycsb, true);
  double t0 = run("TPC-C", tpcc, false);
  double t1 = run("TPC-C + disk logging", tpcc, true);
  std::printf("overhead: YCSB %.1f%%, TPC-C %.1f%% (paper: 6%% / 14%%)\n",
              100 * (1 - y1 / y0), 100 * (1 - t1 / t0));
  return 0;
}
