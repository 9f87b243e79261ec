// Chaos harness (the robustness tentpole): randomized, seeded fault
// schedules — delay/jitter, loss-with-retransmission, asymmetric
// partitions, link flaps — injected by net::FaultTransport underneath a
// live STAR cluster, with four invariants checked on every episode:
//
//   1. convergence: all replicas of every partition end byte-identical
//   2. monotonicity: epoch and durable epoch never move backwards
//   3. no acked-commit loss: every client-acked write survives in the store
//   4. liveness: once the faults lift, the cluster commits again
//
// Every episode is reproducible from its printed seed:
//   STAR_CHAOS_BASE_SEED=<seed> STAR_CHAOS_TCP_SEEDS=1 ./chaos_test \
//       --gtest_filter='Chaos.TcpSoak'
// (and the same knobs with STAR_CHAOS_SIM_SEEDS for Chaos.SimSweep).  A
// failing seed also dumps its full fault schedule to stderr.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "tests/chaos_util.h"

namespace star::chaos {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : def;
}

/// Per-seed configuration mix: most episodes are plain; every third adds
/// replica readers (snapshot reads must survive chaos too) and every
/// fourth runs with durable logging so the durable-epoch invariant is
/// exercised against a real WAL, not a constant zero.
ChaosConfig ConfigForSeed(uint64_t seed) {
  ChaosConfig cfg;
  cfg.replica_readers = (seed % 3) == 0;
  cfg.durable = (seed % 4) == 1;
  return cfg;
}

void RunSimSeeds(uint64_t base_seed, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    std::string diag;
    int rc = RunSimChaosEpisode(seed, ConfigForSeed(seed), &diag);
    if (rc != 0) {
      PrintSchedule(seed, ChaosOptions(seed, ConfigForSeed(seed), 300, 1500)
                              .fault.episodes,
                    stderr);
    }
    ASSERT_EQ(rc, 0) << "sim chaos seed " << seed << " failed (rc " << rc
                     << "):\n"
                     << diag
                     << "replay: STAR_CHAOS_BASE_SEED=" << seed
                     << " STAR_CHAOS_SIM_SEEDS=1 ./chaos_test "
                        "--gtest_filter='Chaos.SimSweep'";
  }
}

void RunTcpSeeds(uint64_t base_seed, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t seed = base_seed + i;
    std::string diag;
    int rc = RunTcpChaosEpisode(seed, ConfigForSeed(seed), &diag);
    ASSERT_EQ(rc, 0) << "tcp chaos seed " << seed << " failed (rc " << rc
                     << "; schedule above):\n"
                     << diag << "replay: STAR_CHAOS_BASE_SEED=" << seed
                     << " STAR_CHAOS_TCP_SEEDS=1 ./chaos_test "
                        "--gtest_filter='Chaos.TcpSoak'";
  }
}

/// In-process simulated sweep: deeper schedules, full oracle + convergence
/// checks per episode.
TEST(Chaos, SimSweep) {
  RunSimSeeds(EnvU64("STAR_CHAOS_BASE_SEED", 1000),
              EnvU64("STAR_CHAOS_SIM_SEEDS", 12));
}

/// The acceptance soak: >= 50 randomized schedules against the real
/// multiprocess TCP cluster (one process per node + coordinator, faults
/// aligned across processes via a shared CLOCK_MONOTONIC origin).
TEST(Chaos, TcpSoak) {
  RunTcpSeeds(EnvU64("STAR_CHAOS_BASE_SEED", 5000),
              EnvU64("STAR_CHAOS_TCP_SEEDS", 50));
}

/// chaos_smoke tier (ctest -L chaos_smoke): one quick episode per
/// substrate, suitable for every CI run.
TEST(Chaos, SmokeSim) { RunSimSeeds(EnvU64("STAR_CHAOS_BASE_SEED", 42), 1); }

TEST(Chaos, SmokeTcp) { RunTcpSeeds(EnvU64("STAR_CHAOS_BASE_SEED", 42), 1); }

}  // namespace
}  // namespace star::chaos
