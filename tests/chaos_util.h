#ifndef STAR_TESTS_CHAOS_UTIL_H_
#define STAR_TESTS_CHAOS_UTIL_H_

// Chaos harness DSL (tests/chaos_test.cc): seeded random fault-schedule
// generation for net::FaultTransport, an acked-commit oracle workload, and
// the invariant checkers (convergence, epoch/durable-epoch monotonicity,
// post-fault liveness, no acked-commit loss).  Everything is deterministic
// in the episode seed so a failing run reproduces from the one number the
// harness prints.
//
// Fault model exercised here (gray failures, not clean crashes):
//   * delay/jitter  — every message on a directed link gets extra latency
//   * loss          — messages are "lost" and retransmitted after a penalty
//                     (TCP semantics: delayed, never silently dropped)
//   * partition     — a directed link black-holes until the window ends
//   * flap          — a short bidirectional partition (link bounce)
//
// Schedules are generated so that no node can be written off: partitions
// and flaps are kept shorter than fence_miss_threshold consecutive fence
// timeouts, and the protected node (the full replica hosting the oracle)
// never has its coordinator links partitioned.  Actual write-off/rejoin
// behaviour is covered by failure_test and the multiprocess rejoin tests;
// chaos asserts that *gray* faults are survived without any state change.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "core/engine.h"
#include "driver/cluster_driver.h"
#include "storage/checksum.h"
#include "workload/ycsb.h"

namespace star::chaos {

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

/// Bounds for one generated schedule.  Durations are capped so that a
/// coordinator with fence_miss_threshold >= 3 and fence_timeout_ms >=
/// max_partition_ms can never accumulate enough consecutive misses to write
/// a node off: every injected outage is gray, not fatal.
struct ScheduleShape {
  int endpoints = 0;        // nodes + 1; the coordinator is endpoints - 1
  int protect_node = 0;     // its coordinator links get delay episodes only
  double window_start_ms = 300;
  double window_end_ms = 1500;
  int episodes = 8;
  double max_partition_ms = 450;
  double max_flap_ms = 160;
};

inline std::vector<net::FaultEpisode> GenerateSchedule(
    uint64_t seed, const ScheduleShape& shape) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A05ull);
  const int coord = shape.endpoints - 1;
  std::vector<net::FaultEpisode> out;
  for (int i = 0; i < shape.episodes; ++i) {
    int src = static_cast<int>(rng.Next() % shape.endpoints);
    int dst = static_cast<int>(rng.Next() % shape.endpoints);
    if (src == dst) dst = (dst + 1) % shape.endpoints;
    int kind = static_cast<int>(rng.Next() % 4);  // delay/drop/partition/flap
    // The protected node's coordinator links carry fence traffic the
    // liveness oracle depends on; only jitter them.  (Partitioning them is
    // write-off territory — failure_test's job, not chaos's.)
    bool protected_link =
        (src == shape.protect_node && dst == coord) ||
        (src == coord && dst == shape.protect_node);
    if (protected_link && kind != 0) kind = 0;

    net::FaultEpisode e;
    e.src = src;
    e.dst = dst;
    double span = shape.window_end_ms - shape.window_start_ms;
    switch (kind) {
      case 0: {  // delay/jitter
        double dur = 200 + rng.NextDouble() * 600;
        e.start_ms = shape.window_start_ms + rng.NextDouble() * (span - dur);
        e.end_ms = e.start_ms + dur;
        e.kind = net::FaultEpisode::Kind::kDelay;
        e.delay_min_us = 100 + rng.NextDouble() * 400;
        e.delay_max_us = e.delay_min_us + 200 + rng.NextDouble() * 2000;
        out.push_back(e);
        break;
      }
      case 1: {  // loss with retransmission penalty
        double dur = 200 + rng.NextDouble() * 400;
        e.start_ms = shape.window_start_ms + rng.NextDouble() * (span - dur);
        e.end_ms = e.start_ms + dur;
        e.kind = net::FaultEpisode::Kind::kDrop;
        e.drop_p = 0.05 + rng.NextDouble() * 0.3;
        e.penalty_ms = 20 + rng.NextDouble() * 40;
        out.push_back(e);
        break;
      }
      case 2: {  // asymmetric partition (one direction only)
        double dur = 150 + rng.NextDouble() * (shape.max_partition_ms - 150);
        e.start_ms = shape.window_start_ms + rng.NextDouble() * (span - dur);
        e.end_ms = e.start_ms + dur;
        e.kind = net::FaultEpisode::Kind::kPartition;
        out.push_back(e);
        break;
      }
      default: {  // flap: short partition in both directions
        double dur = 60 + rng.NextDouble() * (shape.max_flap_ms - 60);
        e.start_ms = shape.window_start_ms + rng.NextDouble() * (span - dur);
        e.end_ms = e.start_ms + dur;
        e.kind = net::FaultEpisode::Kind::kPartition;
        out.push_back(e);
        net::FaultEpisode back = e;
        back.src = e.dst;
        back.dst = e.src;
        out.push_back(back);
        break;
      }
    }
  }
  return out;
}

/// Dumps a schedule in replayable form.  Printed for every failing seed so
/// the exact fault sequence is in the test log.
inline void PrintSchedule(uint64_t seed,
                          const std::vector<net::FaultEpisode>& eps,
                          FILE* out) {
  std::fprintf(out, "[chaos] seed=%llu schedule (%zu episodes):\n",
               static_cast<unsigned long long>(seed), eps.size());
  for (const auto& e : eps) {
    std::fprintf(out,
                 "[chaos]   %-9s %d->%d  [%7.1f, %7.1f) ms"
                 "  delay=[%.0f,%.0f]us drop_p=%.2f penalty=%.0fms%s\n",
                 net::FaultKindName(e.kind), e.src, e.dst, e.start_ms,
                 e.end_ms, e.delay_min_us, e.delay_max_us, e.drop_p,
                 e.penalty_ms, e.loss ? " loss" : "");
  }
  std::fflush(out);
}

// ---------------------------------------------------------------------------
// Oracle workload: YCSB plus a dedicated table only the oracle writes
// ---------------------------------------------------------------------------

/// YCSB with an extra `chaos_oracle` table holding a few counter rows per
/// partition.  Synthetic load (MakeSinglePartition/MakeCrossPartition) is
/// pure YCSB and never touches table kOracleTable, so the oracle's serial
/// per-key value sequence is interference-free while the engine is under
/// full synthetic write pressure.
class ChaosWorkload final : public Workload {
 public:
  static constexpr int kOracleTable = 1;
  static constexpr uint64_t kOracleKeysPerPartition = 8;
  struct OracleRow {
    uint64_t value;
    uint64_t stamp;  // value-derived; makes torn writes visible in checksums
  };

  explicit ChaosWorkload(YcsbOptions o) : inner_(o) {}

  std::string name() const override { return "chaos-ycsb"; }

  std::vector<TableSchema> Schemas() const override {
    std::vector<TableSchema> s = inner_.Schemas();
    TableSchema t;
    t.name = "chaos_oracle";
    t.value_size = sizeof(OracleRow);
    t.expected_rows_per_partition = kOracleKeysPerPartition * 2;
    s.push_back(t);
    return s;
  }

  void PopulatePartition(Database& db, int partition) const override {
    inner_.PopulatePartition(db, partition);
    OracleRow r{0, 0};
    for (uint64_t k = 0; k < kOracleKeysPerPartition; ++k) {
      db.Load(kOracleTable, partition, k, &r);
    }
  }

  TxnRequest MakeSinglePartition(Rng& rng, int partition,
                                 int num_partitions) const override {
    return inner_.MakeSinglePartition(rng, partition, num_partitions);
  }
  TxnRequest MakeCrossPartition(Rng& rng, int home_partition,
                                int num_partitions) const override {
    return inner_.MakeCrossPartition(rng, home_partition, num_partitions);
  }
  TxnRequest MakeReadOnly(Rng& rng, int partition,
                          int num_partitions) const override {
    return inner_.MakeReadOnly(rng, partition, num_partitions);
  }

 private:
  YcsbWorkload inner_;
};

// ---------------------------------------------------------------------------
// Acked-commit oracle
// ---------------------------------------------------------------------------

/// Client-side commit oracle: a single thread submits strictly serial
/// counter writes to the chaos_oracle table (one in flight at a time,
/// values per key strictly increasing) and records a value as *acked* only
/// when the engine's `done` callback reports kCommitted — which the engine
/// fires at group-commit release, i.e. after the epoch's replication fence
/// succeeded.  After shutdown, Verify() re-reads the table: every acked
/// value must be covered.  An acked-then-lost value is the one unforgivable
/// outcome under faults.
class ChaosOracle {
 public:
  ChaosOracle(StarEngine* engine, int num_partitions, uint64_t seed)
      : engine_(engine), rng_(seed ^ 0x0DEC0DEull) {
    for (int p = 0; p < num_partitions; ++p) {
      for (uint64_t k = 0; k < 2; ++k) keys_.push_back(KeyState{p, k, 0});
    }
  }

  /// Serial submit loop; runs until `stop`, then drains the in-flight
  /// request (briefly) and returns.  `fault_end_ns` classifies acks that
  /// prove post-fault liveness.
  void Run(const std::atomic<bool>& stop, uint64_t fault_end_ns) {
    while (!stop.load(std::memory_order_acquire)) {
      KeyState& k = keys_[rng_.Next() % keys_.size()];
      uint64_t v = k.acked + 1;
      Pending* p = Submit(k, v);
      if (p == nullptr) {  // backpressure or not accepting: brief pause
        ++submit_failures_;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      int outcome = Await(*p, stop);
      if (outcome < 0) {  // abandoned: in flight at stop, or wedged
        if (!stop.load(std::memory_order_acquire)) stuck_ = true;
        return;  // p intentionally leaked: the engine may still complete it
      }
      TxnStatus st = static_cast<TxnStatus>(p->status.load(
          std::memory_order_acquire));
      uint64_t epoch = p->epoch.load(std::memory_order_acquire);
      delete p;
      if (st == TxnStatus::kCommitted) {
        k.acked = v;
        ++acked_;
        if (NowNanos() > fault_end_ns) ++acked_after_fault_;
        if (epoch < last_ack_epoch_) epoch_regressed_ = true;
        last_ack_epoch_ = epoch;
      } else {
        ++aborted_;  // retried with the same value on the next visit
      }
    }
  }

  /// Post-shutdown check against the full replica's database.  Returns true
  /// iff no acked value was lost.
  bool Verify(Database* db, std::string* diag) const {
    bool ok = true;
    for (const auto& k : keys_) {
      if (k.acked == 0) continue;
      HashTable* ht = db->table(ChaosWorkload::kOracleTable, k.partition);
      ChaosWorkload::OracleRow row{0, 0};
      bool present = false;
      if (ht != nullptr) {
        HashTable::Row r = ht->GetRow(k.key);
        if (r.valid()) {
          r.ReadStable(&row);
          present = true;
        }
      }
      if (!present || row.value < k.acked) {
        ok = false;
        if (diag != nullptr) {
          *diag += "acked commit lost: partition " +
                   std::to_string(k.partition) + " key " +
                   std::to_string(k.key) + " acked=" +
                   std::to_string(k.acked) + " stored=" +
                   (present ? std::to_string(row.value) : "<absent>") + "\n";
        }
      }
    }
    return ok;
  }

  uint64_t acked() const { return acked_; }
  uint64_t acked_after_fault() const { return acked_after_fault_; }
  uint64_t aborted() const { return aborted_; }
  bool stuck() const { return stuck_; }
  bool epoch_regressed() const { return epoch_regressed_; }

 private:
  struct KeyState {
    int partition;
    uint64_t key;
    uint64_t acked;
  };
  /// Completion slot; heap-allocated per attempt so an abandoned in-flight
  /// request stays valid for the engine's eventual `done` call.
  struct Pending {
    StarEngine::ExternalTxn txn;
    std::atomic<int> state{0};
    std::atomic<int> status{0};
    std::atomic<uint64_t> epoch{0};
  };

  static void Done(StarEngine::ExternalTxn* t, TxnStatus status,
                   uint64_t epoch) {
    auto* p = reinterpret_cast<Pending*>(t->owner);
    p->status.store(static_cast<int>(status), std::memory_order_release);
    p->epoch.store(epoch, std::memory_order_release);
    p->state.store(1, std::memory_order_release);
  }

  Pending* Submit(const KeyState& k, uint64_t v) {
    auto* p = new Pending();
    p->txn.req.home_partition = k.partition;
    p->txn.req.cross_partition = false;
    p->txn.req.read_only = false;
    AccessDesc a;
    a.table = ChaosWorkload::kOracleTable;
    a.partition = k.partition;
    a.key = k.key;
    a.write = true;
    p->txn.req.accesses.push_back(a);
    int partition = k.partition;
    uint64_t key = k.key;
    p->txn.req.proc = [partition, key, v](TxnContext& ctx) {
      ChaosWorkload::OracleRow row;
      if (!ctx.Read(ChaosWorkload::kOracleTable, partition, key, &row)) {
        return TxnStatus::kAbortConflict;
      }
      row.value = v;
      row.stamp = v * 0x5CA1AB1Eull;
      ctx.Write(ChaosWorkload::kOracleTable, partition, key, &row);
      return TxnStatus::kCommitted;
    };
    p->txn.done = &ChaosOracle::Done;
    p->txn.owner = p;
    if (!engine_->SubmitExternal(&p->txn)) {
      delete p;
      return nullptr;
    }
    return p;
  }

  /// 0 = completed; -1 = abandoned (leaks the slot on purpose).  The ack
  /// budget is generous: a commit can legitimately wait out several failed
  /// fence rounds during a partition window.
  int Await(Pending& p, const std::atomic<bool>& stop) {
    uint64_t deadline = NowNanos() + MillisToNanos(25'000);
    uint64_t stop_grace = 0;
    while (p.state.load(std::memory_order_acquire) == 0) {
      if (NowNanos() > deadline) return -1;
      if (stop.load(std::memory_order_acquire)) {
        // Queued work drains at shutdown; give it a moment, then abandon.
        if (stop_grace == 0) {
          stop_grace = NowNanos() + MillisToNanos(2'000);
        } else if (NowNanos() > stop_grace) {
          return -1;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return 0;
  }

  StarEngine* engine_;
  Rng rng_;
  std::vector<KeyState> keys_;
  uint64_t acked_ = 0;
  uint64_t acked_after_fault_ = 0;
  uint64_t aborted_ = 0;
  uint64_t submit_failures_ = 0;
  uint64_t last_ack_epoch_ = 0;
  bool stuck_ = false;
  bool epoch_regressed_ = false;
};

// ---------------------------------------------------------------------------
// Invariant checkers
// ---------------------------------------------------------------------------

/// Samples engine.epoch() and engine.durable_epoch() on a background thread
/// and flags any regression: neither may ever move backwards, faults or
/// not (a failed fence simply does not advance the epoch; revert drops the
/// *uncommitted* epoch, never a released one).
class MonotonicitySampler {
 public:
  explicit MonotonicitySampler(StarEngine* engine) : engine_(engine) {
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] {
      uint64_t last_e = 0, last_d = 0;
      while (running_.load(std::memory_order_acquire)) {
        uint64_t e = engine_->epoch();
        uint64_t d = engine_->durable_epoch();
        if (e < last_e || d < last_d) {
          violation_.store(true, std::memory_order_release);
        }
        last_e = std::max(last_e, e);
        last_d = std::max(last_d, d);
        ++samples_;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~MonotonicitySampler() { StopAndCheck(); }

  /// Stops sampling; returns true iff epoch and durable epoch only ever
  /// moved forward.
  bool StopAndCheck() {
    if (thread_.joinable()) {
      running_.store(false, std::memory_order_release);
      thread_.join();
    }
    return !violation_.load(std::memory_order_acquire);
  }
  uint64_t samples() const { return samples_; }

 private:
  StarEngine* engine_;
  std::atomic<bool> running_{false};
  std::atomic<bool> violation_{false};
  uint64_t samples_ = 0;
  std::thread thread_;
};

/// Liveness after the faults lift: the epoch must advance by `delta` more
/// fences within `ms` — i.e. the cluster is committing again, not wedged on
/// a stale view or a parked node.
inline bool AwaitEpochAdvance(StarEngine& engine, uint64_t delta, double ms) {
  uint64_t base = engine.epoch();
  uint64_t deadline = NowNanos() + MillisToNanos(static_cast<uint64_t>(ms));
  while (NowNanos() < deadline) {
    if (engine.epoch() >= base + delta) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return engine.epoch() >= base + delta;
}

/// Replica convergence across one in-process engine: every healthy node
/// storing a partition must report the same whole-database checksum for it
/// (oracle table included).
inline bool CheckConvergence(StarEngine& engine, int nodes, int partitions,
                             std::string* diag) {
  bool ok = true;
  for (int p = 0; p < partitions; ++p) {
    bool first = true;
    uint64_t expect = 0;
    for (int n = 0; n < nodes; ++n) {
      if (!engine.IsNodeHealthy(n)) continue;
      Database* db = engine.database(n);
      if (db == nullptr || !db->HasPartition(p)) continue;
      uint64_t sum = DatabasePartitionChecksum(*db, p);
      if (first) {
        expect = sum;
        first = false;
      } else if (sum != expect) {
        ok = false;
        if (diag != nullptr) {
          *diag += "replica divergence: partition " + std::to_string(p) +
                   " node " + std::to_string(n) + "\n";
        }
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Episode runners
// ---------------------------------------------------------------------------

struct ChaosConfig {
  double seconds = 2.4;       // sim run length (TCP adds startup slack)
  int episodes = 8;           // generated fault episodes per schedule
  bool durable = false;       // WAL + durable-epoch tracking on
  bool replica_readers = false;
  int full_replicas = 1;
  int partial_replicas = 2;
};

/// Engine options shared by the sim and TCP chaos runs.  Fault windows are
/// sized so a gray fault can delay fences but never sustain the
/// fence_miss_threshold consecutive misses a write-off requires.
inline StarOptions ChaosOptions(uint64_t seed, const ChaosConfig& cfg,
                                double window_start_ms,
                                double window_end_ms) {
  StarOptions o;
  o.cluster.full_replicas = cfg.full_replicas;
  o.cluster.partial_replicas = cfg.partial_replicas;
  o.cluster.workers_per_node = 2;
  o.iteration_ms = 10;
  o.cross_fraction = 0.15;
  o.two_version = true;
  o.fence_timeout_ms = 600;
  o.fence_miss_threshold = 3;
  o.phase_ack_wait_ms = 200;
  o.coord_rpc_retries = 2;
  o.coord_backoff_min_ms = 10;
  o.coord_backoff_max_ms = 80;
  o.rejoin_backoff_min_ms = 20;
  o.rejoin_backoff_max_ms = 200;
  if (cfg.durable) {
    o.durable_logging = true;
    o.fsync = false;  // durable-epoch plumbing without 1-vCPU fsync stalls
    o.log_dir = "/tmp/star_chaos_logs";
  }
  if (cfg.replica_readers) o.replica_read_workers = 1;
  ScheduleShape shape;
  shape.endpoints = o.cluster.nodes() + 1;
  shape.protect_node = 0;  // the full replica hosting the oracle
  shape.window_start_ms = window_start_ms;
  shape.window_end_ms = window_end_ms;
  shape.episodes = cfg.episodes;
  o.fault.enabled = true;
  o.fault.seed = seed;
  o.fault.episodes = GenerateSchedule(seed, shape);
  return o;
}

/// A passing durable episode deletes its WAL directory: a TCP soak writes
/// hundreds of MB per durable seed and would otherwise fill the disk.  A
/// failing episode keeps it for the post-mortem and names it in `diag`.
inline void DisposeEpisodeLogs(int rc, const std::string& dir,
                               std::string* diag) {
  if (rc == 0) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  } else if (diag != nullptr) {
    *diag += "durable logs kept in " + dir + "\n";
  }
}

inline YcsbOptions ChaosYcsb() {
  YcsbOptions o;
  o.rows_per_partition = 2000;
  return o;
}

/// One fully in-process simulated episode.  Returns 0 on success; on any
/// invariant violation prints the schedule and returns a distinct code.
inline int RunSimChaosEpisode(uint64_t seed, const ChaosConfig& cfg,
                              std::string* diag) {
  const double window_start = 300;
  const double window_end = 1500;
  StarOptions o = ChaosOptions(seed, cfg, window_start, window_end);
  if (cfg.durable) o.log_dir += "/sim_" + std::to_string(getpid());
  ChaosWorkload wl(ChaosYcsb());
  StarEngine engine(o, wl);
  engine.Start();
  uint64_t fault_end_ns = NowNanos() + MillisToNanos(
      static_cast<uint64_t>(window_end));

  MonotonicitySampler sampler(&engine);
  ChaosOracle oracle(&engine, o.cluster.num_partitions(), seed);
  std::atomic<bool> stop{false};
  std::thread client([&] { oracle.Run(stop, fault_end_ns); });

  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int64_t>(cfg.seconds * 1000)));

  // Liveness: the faults have lifted; fences must be succeeding again.
  bool live = AwaitEpochAdvance(engine, 3, 20'000);
  stop.store(true, std::memory_order_release);
  client.join();
  bool monotonic = sampler.StopAndCheck();
  engine.Stop();

  int rc = 0;
  if (!live) {
    rc = 6;
    if (diag) *diag += "liveness: epoch did not advance after faults\n";
  }
  if (!monotonic) {
    rc = 7;
    if (diag) *diag += "epoch or durable epoch regressed\n";
  }
  if (oracle.stuck() || oracle.epoch_regressed()) {
    rc = 8;
    if (diag) *diag += "oracle wedged or saw a commit-epoch regression\n";
  }
  if (!oracle.Verify(engine.database(0), diag)) rc = 5;
  if (!CheckConvergence(engine, o.cluster.nodes(),
                        o.cluster.num_partitions(), diag)) {
    rc = 9;
  }
  if (oracle.acked() == 0) {
    rc = 10;
    if (diag) *diag += "oracle never got a single ack\n";
  }
  if (cfg.durable) DisposeEpisodeLogs(rc, o.log_dir, diag);
  return rc;
}

// --- TCP multiprocess episode -----------------------------------------------

/// Coordinator body: drive the cluster through the fault window, demand
/// epoch/durable monotonicity and post-fault liveness, then run the normal
/// shutdown round and judge the summary (all nodes reporting, commits in
/// both classes, checksums converged).
inline int ChaosCoordinatorBody(const StarOptions& base, double seconds) {
  ChaosWorkload wl(ChaosYcsb());
  StarEngine engine(driver::ForRole(base, /*coordinator=*/true, -1, false),
                    wl);
  engine.Start();
  MonotonicitySampler sampler(&engine);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000)));
  bool live = AwaitEpochAdvance(engine, 3, 20'000);
  bool monotonic = sampler.StopAndCheck();
  engine.Stop();
  const StarEngine::ClusterSummary& s = engine.cluster_summary();
  int n = base.cluster.nodes();
  std::fprintf(stderr,
               "[chaos coord] reporting=%d/%d committed=%llu cross=%llu "
               "converged=%s live=%s epoch=%llu durable=%llu\n",
               s.nodes_reporting, n,
               static_cast<unsigned long long>(s.committed),
               static_cast<unsigned long long>(s.cross_partition),
               s.converged ? "yes" : "NO", live ? "yes" : "NO",
               static_cast<unsigned long long>(engine.epoch()),
               static_cast<unsigned long long>(engine.durable_epoch()));
  if (!monotonic) return 7;
  if (!live) return 6;
  // Gray faults must not cost us a node: every process reports.
  bool ok = s.valid && s.nodes_reporting == n && s.committed > 0 &&
            s.cross_partition > 0 && s.converged;
  return ok ? 0 : 1;
}

/// Node body: node 0 (the protected full replica, colocated with the
/// designated master) additionally runs the acked-commit oracle and checks
/// it against its own replica after the shutdown round.
inline int ChaosNodeBody(const StarOptions& base, int id, double seconds,
                         uint64_t fault_end_ns) {
  ChaosWorkload wl(ChaosYcsb());
  StarEngine engine(driver::ForRole(base, /*coordinator=*/false, id, false),
                    wl);
  engine.Start();
  MonotonicitySampler sampler(&engine);

  std::unique_ptr<ChaosOracle> oracle;
  std::atomic<bool> stop{false};
  std::thread client;
  if (id == 0) {
    oracle = std::make_unique<ChaosOracle>(
        &engine, base.cluster.num_partitions(), base.fault.seed);
    client = std::thread([&] { oracle->Run(stop, fault_end_ns); });
  }

  bool served = engine.WaitForShutdown(seconds * 1000.0 + 30'000.0);
  stop.store(true, std::memory_order_release);
  if (client.joinable()) client.join();
  bool monotonic = sampler.StopAndCheck();

  int rc = 0;
  std::string diag;
  if (oracle != nullptr) {
    // Stop() has drained the trackers: every in-flight done has fired.
    Metrics m = engine.Stop();
    (void)m;
    if (!oracle->Verify(engine.database(0), &diag)) rc = 5;
    if (oracle->acked() == 0 || oracle->stuck()) rc = 8;
    if (oracle->acked_after_fault() == 0 && rc == 0) rc = 8;
    std::fprintf(stderr,
                 "[chaos node 0] acked=%llu after_fault=%llu aborted=%llu "
                 "stuck=%d %s\n",
                 static_cast<unsigned long long>(oracle->acked()),
                 static_cast<unsigned long long>(oracle->acked_after_fault()),
                 static_cast<unsigned long long>(oracle->aborted()),
                 oracle->stuck() ? 1 : 0, diag.c_str());
  } else {
    engine.Stop();
  }
  if (!monotonic) rc = 7;
  if (!served && rc == 0) rc = 2;
  return rc;
}

/// Forks a coordinator plus one process per node, all sharing one seeded
/// fault schedule anchored to a common CLOCK_MONOTONIC origin stamped
/// before the forks.  Returns 0 iff every process upheld every invariant;
/// on failure prints the schedule and appends diagnostics to `diag`.
inline int RunTcpChaosEpisode(uint64_t seed, const ChaosConfig& cfg,
                              std::string* diag) {
  // The window starts after the startup barrier + population typically
  // finish on the 1-vCPU host, so faults land on a running cluster.
  const double window_start = 2'000;
  const double window_end = 3'600;
  const double seconds = cfg.seconds + window_end / 1000.0;
  StarOptions base = ChaosOptions(seed, cfg, window_start, window_end);
  base.transport = net::TransportKind::kTcp;
  int n = base.cluster.nodes();
  base.tcp_base_port = driver::PickFreeBasePort(n + 1);
  if (cfg.durable) base.log_dir += "/tcp_" + std::to_string(getpid());
  // One origin for every process: fault windows line up cluster-wide.
  base.fault.origin_ns = NowNanos();
  uint64_t fault_end_ns =
      base.fault.origin_ns + MillisToNanos(static_cast<uint64_t>(window_end));

  pid_t coord = fork();
  if (coord == 0) _exit(ChaosCoordinatorBody(base, seconds));
  std::vector<pid_t> pids(n, -1);
  for (int i = 0; i < n; ++i) {
    pid_t p = fork();
    if (p == 0) _exit(ChaosNodeBody(base, i, seconds, fault_end_ns));
    pids[i] = p;
  }

  int rc = 0, status = 0;
  waitpid(coord, &status, 0);
  int coord_rc = WIFEXITED(status) ? WEXITSTATUS(status) : 100;
  if (coord_rc != 0) rc = coord_rc;
  for (int i = 0; i < n; ++i) {
    waitpid(pids[i], &status, 0);
    int node_rc = WIFEXITED(status) ? WEXITSTATUS(status) : 100;
    if (node_rc != 0 && rc == 0) rc = 10 + node_rc;
  }
  if (rc != 0) PrintSchedule(seed, base.fault.episodes, stderr);
  if (cfg.durable) DisposeEpisodeLogs(rc, base.log_dir, diag);
  return rc;
}

}  // namespace star::chaos

#endif  // STAR_TESTS_CHAOS_UTIL_H_
