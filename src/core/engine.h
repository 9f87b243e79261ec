#ifndef STAR_CORE_ENGINE_H_
#define STAR_CORE_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/epoch.h"
#include "cc/silo.h"
#include "cc/workload.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/mutex.h"
#include "common/spinlock.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "core/options.h"
#include "net/endpoint.h"
#include "net/transport.h"
#include "replication/applier.h"
#include "replication/sharded_applier.h"
#include "replication/stream.h"
#include "wal/logger.h"
#include "wal/wal.h"

namespace star {

class SnapshotContext;

/// The STAR engine: a cluster of f full replicas and k partial replicas
/// running the phase-switching protocol of Section 4 over an abstract
/// message transport (simulated fabric or real TCP sockets — see
/// net/transport.h).
///
/// Threads per node: `workers_per_node` transaction workers, one control
/// thread (fence participation, Figure 5), and `io_threads_per_node`
/// transport pollers that apply inbound replication.  A stand-alone
/// coordinator thread (its own transport endpoint, as the paper deploys it
/// "outside of STAR instances") drives phase transitions.
///
/// Deployment scope: by default one engine hosts the whole cluster in one
/// process.  With StarOptions::multiprocess, each process constructs the
/// engine from identical options but hosts only its `hosted_nodes` (and
/// the coordinator where `hosted_coordinator` is set); cluster state that
/// used to be poked directly (health, mastership, partition assignment) is
/// then carried by a generation-numbered view broadcast (kViewChange) that
/// every process applies deterministically.
///
/// Usage:
///   StarEngine engine(options, workload);
///   engine.Start();
///   ... let it run ...
///   Metrics m = engine.Stop();
class StarEngine {
 public:
  StarEngine(const StarOptions& options, const Workload& workload);
  ~StarEngine();

  StarEngine(const StarEngine&) = delete;
  StarEngine& operator=(const StarEngine&) = delete;

  /// Populates all hosted replicas and launches worker/control/io (and,
  /// where hosted, coordinator) threads.
  void Start();

  /// Runs a final fence, stops all threads, and returns the metrics
  /// accumulated since Start()/ResetStats().  The multi-process coordinator
  /// additionally runs the shutdown round (see cluster_summary()).
  Metrics Stop();

  /// Snapshot of the counters without stopping (approximate while running).
  Metrics Snapshot() const;

  /// Clears counters and restarts the measurement clock (used to exclude
  /// warm-up).
  void ResetStats();

  // --- fault tolerance (Section 4.5) ---

  /// Fail-stop failure injection: the node's endpoint drops off the
  /// transport.  Detected by the coordinator at the next fence.  (In a
  /// multi-process deployment the equivalent is killing the node process.)
  void InjectFailure(int node);

  /// Asks the coordinator to re-admit a previously failed node at the next
  /// fence: the node re-fetches its partitions from healthy replicas
  /// (Case 1's "copies data from remote nodes"), then regains mastership.
  void RequestRejoin(int node);

  // --- multi-process deployment ---

  /// Node-process side of rejoin: RPCs kRejoinRequest to the coordinator
  /// with jittered exponential backoff (the ack may be dropped while this
  /// node is still marked down) until acknowledged.  Returns false once the
  /// budget expires; <= 0 uses StarOptions::rejoin_timeout_ms.
  bool RequestRejoinFromCoordinator(double timeout_ms = -1.0);

  /// Node-process side of shutdown: blocks until every hosted node has
  /// served the coordinator's kShutdown round (or the timeout expires).
  bool WaitForShutdown(double timeout_ms);

  /// Result of the multi-process shutdown round: cluster-wide committed
  /// counts and whether every reported replica of every partition carried
  /// the same checksum.
  struct ClusterSummary {
    bool valid = false;
    uint64_t committed = 0;
    uint64_t cross_partition = 0;
    int nodes_reporting = 0;
    bool converged = false;
  };
  const ClusterSummary& cluster_summary() const { return summary_; }

  SystemState state() const { return state_.load(std::memory_order_acquire); }
  bool IsNodeHealthy(int node) const {
    return node_healthy_[node].load(std::memory_order_acquire);
  }

  // --- introspection (tests, benches, docs) ---

  Database* database(int node) { return nodes_[node]->db.get(); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t fence_count() const {
    return fence_count_.load(std::memory_order_relaxed);
  }
  double fence_seconds() const {
    return static_cast<double>(
               fence_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }
  uint64_t fence_stop_ns() const {
    return fence_stop_ns_.load(std::memory_order_relaxed);
  }
  uint64_t fence_drain_ns() const {
    return fence_drain_ns_.load(std::memory_order_relaxed);
  }
  double current_tau_p_ms() const { return tau_p_ms_; }
  double current_tau_s_ms() const { return tau_s_ms_; }
  /// Cluster-wide durable epoch E_d: every transaction of every epoch
  /// <= E_d is fsynced on every healthy node.  On the coordinator this is
  /// the authoritative value; node processes report the last E_d a phase
  /// start published to them.
  uint64_t durable_epoch() const {
    if (coordinator_here_) {
      return cluster_durable_.load(std::memory_order_acquire);
    }
    uint64_t d = 0;
    for (const auto& n : nodes_) {
      if (n != nullptr) {
        d = std::max(d, n->durable_cluster.load(std::memory_order_acquire));
      }
    }
    return d;
  }
  /// Bytes fetched over the rejoin path by hosted nodes (delta or full).
  uint64_t rejoin_fetch_bytes() const {
    uint64_t b = 0;
    for (const auto& n : nodes_) {
      if (n != nullptr) {
        b += n->rejoin_bytes.load(std::memory_order_relaxed);
      }
    }
    return b;
  }
  int master_node() const {
    return master_node_.load(std::memory_order_relaxed);
  }
  const StarOptions& options() const { return options_; }
  net::Transport* transport() { return transport_.get(); }
  bool Hosts(int node) const { return nodes_[node] != nullptr; }
  /// The node's replay pipeline, or null when replay_shards == 1 (tests use
  /// this to inject apply delays and inspect routing).
  ShardedApplier* sharded_applier(int node) {
    return nodes_[node] != nullptr ? nodes_[node]->sharded.get() : nullptr;
  }
  /// The node's applied-epoch watermark (published by the fence, pinned by
  /// replica readers); null for nodes hosted elsewhere.
  const AppliedEpochWatermark* watermark(int node) const {
    return nodes_[node] != nullptr ? nodes_[node]->watermark.get() : nullptr;
  }

  // --- external request submission (serving front end, src/serve/) ---

  /// An externally submitted stored-procedure invocation.  The engine
  /// executes it on the thread class that owns its routing: partitioned
  /// workers for single-partition writes, the designated master's workers
  /// for cross-partition writes, replica readers for read-only requests.
  /// `done` is invoked exactly once, on the executing thread — at
  /// group-commit release for writes (results are never released before
  /// their epoch closes; `wait_durable` additionally holds them until the
  /// cluster durable epoch covers the commit, i.e. per-request
  /// commit_wait=durable), immediately for read-only snapshots and aborts.
  /// Ownership transfers to `done`; a null `done` makes the engine delete
  /// the object itself.
  struct ExternalTxn {
    TxnRequest req;
    uint64_t submit_ns = 0;     // injection timestamp; 0 = stamp at submit
    uint64_t min_epoch = 0;     // read-your-writes floor (read-only only)
    bool wait_durable = false;  // per-request commit_wait=durable
    void (*done)(ExternalTxn* t, TxnStatus status, uint64_t epoch) = nullptr;
    void* owner = nullptr;      // callback context (e.g. the serve server)
    uint64_t tag0 = 0, tag1 = 0, tag2 = 0;  // opaque callback words
  };

  /// Queues `t` for execution.  Returns false — ownership stays with the
  /// caller — when the target queue is full (backpressure: the caller
  /// sheds) or no hosted thread can serve the class (e.g. a read-only
  /// request with no replica readers for its partition).
  bool SubmitExternal(ExternalTxn* t);

  /// Queued-but-not-yet-executing external requests: the admission
  /// controller's queue-depth signal.
  size_t ExternalDepth() const;

 private:
  struct WorkerState {
    explicit WorkerState(uint64_t seed, uint64_t tid_thread)
        : rng(seed), gen(tid_thread) {}
    Rng rng;
    TidGenerator gen;
    WorkerStats stats;
    GroupCommitTracker tracker;
    std::unique_ptr<ReplicationStream> stream;
    wal::LogLane* wal = nullptr;  // owned by Node's logger pool
    /// Partitions this worker masters in the partitioned phase (rebuilt on
    /// view changes, while workers are parked).
    std::vector<int> partitions;
    /// Per-destination scratch for synchronous replication, so the sync
    /// commit path reuses buffer capacity instead of allocating per commit
    /// (mirrors ReplicationStream's recycling on the async path).
    std::vector<WriteBuffer> sync_batches;
    std::vector<uint64_t> sync_counts;
    std::vector<std::pair<int, uint64_t>> sync_tokens;  // (dst, rpc token)
    /// True while this worker sits in the parked loop; false whenever it
    /// may touch shared engine state (targets, partitions).  Unlike the
    /// node-level `parked` *counter* (which a worker bumps once per phase
    /// sequence, so it inflates across un-reset sequence bumps), this flag
    /// is a faithful per-worker quiescence bit: on a fenced node no phase
    /// start can unpark the worker, so flag==true is stable and the
    /// coordinator may rebuild shared state.
    std::atomic<bool> parked_flag{false};
    size_t rr = 0;              // round-robin cursor over `partitions`
    uint64_t seen_seq = 0;      // last phase sequence acted upon
    uint32_t txn_since_yield = 0;
  };

  /// State of one replica-read worker (cc/snapshot.h).  Cache-line padded
  /// like WorkerStats: readers on neighbouring slots must not false-share.
  struct alignas(64) ReaderState {
    explicit ReaderState(uint64_t seed) : rng(seed) {}
    Rng rng;
    std::atomic<uint64_t> committed{0};   // validated read-only txns
    std::atomic<uint64_t> aborted{0};     // gave up (missing record / user)
    std::atomic<uint64_t> conflicts{0};   // snapshot retries (replay raced)
    std::atomic<uint64_t> keys{0};        // read-set keys validated
    std::atomic<uint64_t> lag_epochs{0};  // sum of (node epoch - pinned W)
    /// True while the reader sits parked (pause request, unhealthy node, or
    /// thread exit) and provably touches no storage.
    std::atomic<bool> parked{false};
    uint32_t txn_since_yield = 0;  // owner-thread only
  };

  /// Cacheline-aligned: phase_word/epoch/parked are polled by every hosted
  /// worker while neighbouring Node allocations take unrelated traffic.
  struct STAR_CACHELINE_ALIGNED Node {
    int id = 0;
    std::unique_ptr<Database> db;
    std::unique_ptr<net::Endpoint> endpoint;
    std::unique_ptr<ReplicationCounters> counters;
    std::unique_ptr<ReplicationApplier> applier;
    /// Per-source applied-epoch watermark, published by this node's control
    /// thread at every drained fence; pinned by replica readers.
    std::unique_ptr<AppliedEpochWatermark> watermark;
    std::vector<std::unique_ptr<ReaderState>> readers;
    std::vector<std::thread> reader_threads;
    /// Quiesce request for the replica readers: set (and awaited via each
    /// reader's `parked` flag) around storage operations optimistic readers
    /// must not race — epoch revert's backup memcpy and the rejoin storage
    /// reset.  Workers need no such handshake: they park at fences anyway.
    std::atomic<bool> readers_pause{false};
    /// Readers serve only while the applied view says this node is fully
    /// healthy.  Load-bearing for rejoin: after the storage reset the
    /// watermark restarts at 0 but the snapshot *fetch* is still copying
    /// old epochs back in, so until the stage-3 view restores kNodeHealthy
    /// a "snapshot at W" here would be missing fetched-later records.
    std::atomic<bool> serving{true};
    /// Parallel replay pipeline (cluster.replay_shards >= 2); null when
    /// replication applies inline on the io thread (the serial default).
    std::unique_ptr<ShardedApplier> sharded;
    /// Batches ignored because their source was marked failed — the
    /// formerly invisible early-return in the kReplicationBatch handler.
    std::atomic<uint64_t> replication_ignored{0};
    /// Group-commit substrate: one lane per log producer (workers, io
    /// threads, replay shards), flushed by dedicated logger threads that
    /// advance this node's durable epoch (wal/logger.h).
    std::unique_ptr<wal::LoggerPool> logs;
    std::unique_ptr<wal::Checkpointer> checkpointer;
    /// Cluster durable epoch E_d as last published by the coordinator's
    /// phase starts: every epoch <= E_d is fsynced on every healthy node.
    /// Read by workers in commit_wait=durable mode and used as the
    /// checkpointer's stable ceiling.
    std::atomic<uint64_t> durable_cluster{0};
    /// Epoch this process recovered its database through at startup
    /// (recover_on_start); gates the delta rejoin fetch.
    uint64_t recovered_epoch = 0;
    /// Payload bytes fetched by this node's rejoin fetch (delta or full).
    std::atomic<uint64_t> rejoin_bytes{0};
    /// What the same fetch would have cost as full snapshots: donor-counted
    /// on the delta path, equal to rejoin_bytes on the snapshot path.
    std::atomic<uint64_t> rejoin_full_bytes{0};
    std::vector<std::unique_ptr<WorkerState>> workers;
    std::vector<std::thread> worker_threads;
    std::thread control_thread;

    /// Phase word: [ phase : 8 | sequence : 56 ].  Written by the control
    /// thread, polled by workers.
    std::atomic<uint64_t> phase_word{0};
    /// Sticky fail-stop latch: set when this node is declared failed
    /// (InjectFailure / fence detection), cleared on rejoin.  The control
    /// thread ignores phase starts while set — a kPhaseStart that was
    /// already queued when the failure was declared must not unpark the
    /// workers of a written-off node (it would race the coordinator's
    /// assignment rebuild).
    std::atomic<bool> fenced{false};
    std::atomic<uint64_t> epoch{1};
    std::atomic<int> parked{0};
    uint64_t reported_committed = 0;  // control-thread only
    /// Fence-drain outcome staged at kFenceExpect, published to the
    /// watermark at the first kPhaseStart whose epoch proves the fence
    /// committed.  Control-thread only (both handlers run there; the
    /// coordinator's per-link FIFO orders them).
    uint64_t staged_epoch = 0;
    std::vector<uint8_t> staged_drained;

    // Control-thread mailbox (requests from the coordinator RPCs).
    Mutex mail_mu;
    CondVar mail_cv;
    std::deque<net::Message> mail STAR_GUARDED_BY(mail_mu);
    std::atomic<bool> control_running{false};
  };

  /// Per-node health in the generation-numbered cluster view.
  static constexpr uint8_t kNodeDown = 0;
  static constexpr uint8_t kNodeHealthy = 1;
  /// Healthy as a replication target, but masters nothing yet (rejoining
  /// node whose snapshot fetch is in flight).
  static constexpr uint8_t kNodeRejoining = 2;

  static uint64_t PackPhase(Phase p, uint64_t seq) {
    return (static_cast<uint64_t>(p) << 56) | seq;
  }
  static Phase PhaseOf(uint64_t word) {
    return static_cast<Phase>(word >> 56);
  }
  static uint64_t SeqOf(uint64_t word) { return word & ((1ull << 56) - 1); }

  // Thread bodies.
  void WorkerLoop(Node& node, int worker_index);
  void ReaderLoop(Node& node, int reader_index);
  void ControlLoop(Node& node);
  void CoordinatorLoop();

  /// Parks every replica reader of `node` (waits until each is provably out
  /// of storage) / releases them.  No-ops without readers.
  void PauseReaders(Node& node);
  void ResumeReaders(Node& node);

  /// A bounded multi-producer queue of externally submitted requests.
  /// Spinlocked deque rather than an MPSC ring because the consumer
  /// migrates with phase switches and view changes (partitioned-phase owner
  /// vs the single-master's workers) — there is no single consumer to
  /// dedicate a ring to — and serving rates sit far below the lock's
  /// capacity.  `depth` shadows q.size() so admission control and the
  /// workers' empty-poll never take the lock.
  struct STAR_CACHELINE_ALIGNED ExternalQueue {
    SpinLock mu;
    std::deque<ExternalTxn*> q STAR_GUARDED_BY(mu);
    std::atomic<size_t> depth{0};

    bool Push(ExternalTxn* t, size_t cap) {
      SpinLockGuard g(mu);
      if (q.size() >= cap) return false;
      q.push_back(t);
      depth.store(q.size(), std::memory_order_relaxed);
      return true;
    }
    ExternalTxn* Pop() {
      if (depth.load(std::memory_order_relaxed) == 0) return nullptr;
      SpinLockGuard g(mu);
      if (q.empty()) return nullptr;
      ExternalTxn* t = q.front();
      q.pop_front();
      depth.store(q.size(), std::memory_order_relaxed);
      return t;
    }
  };

  // External-request execution (see ExternalTxn).
  void RunExternalPartitioned(Node& node, WorkerState& w, SiloContext& ctx,
                              ExternalTxn* t);
  bool RunExternalSingleMaster(Node& node, WorkerState& w, SiloContext& ctx,
                               const PreInstallHook& sync_hook,
                               ExternalTxn* t);
  void RunExternalRead(Node& node, ReaderState& r, SnapshotContext& ctx,
                       ExternalTxn* t);
  /// GroupCommitTracker::DoneFn trampoline: epoch released (or dropped by a
  /// revert) → fire the request's completion.
  static void ExternalReleased(void* ctx, bool committed, uint64_t epoch);
  /// Fires `done` exactly once and hands it ownership of `t`.
  static void CompleteExternal(ExternalTxn* t, TxnStatus status,
                               uint64_t epoch);
  /// Fails every queued external request (engine shutdown).
  void FailExternalQueues();

  // Worker helpers.
  void RunPartitionedTxn(Node& node, WorkerState& w, SiloContext& ctx,
                         int partition);
  /// `sync_hook` is the worker's pre-constructed synchronous-replication
  /// hook (empty unless ReplicationMode::kSyncValue) — constructed once per
  /// worker so the sync commit path does not allocate a std::function per
  /// transaction.
  void RunSingleMasterTxn(Node& node, WorkerState& w, SiloContext& ctx,
                          const PreInstallHook& sync_hook);
  void ReplicateCommit(WorkerState& w, uint64_t tid, const WriteSet& writes,
                       bool allow_ops,
                       const std::vector<std::vector<int>>& targets);
  bool SyncReplicate(Node& node, WorkerState& w, uint64_t tid,
                     WriteSet& writes);
  void LogCommitToWal(WorkerState& w, uint64_t tid, const WriteSet& writes);

  // Coordinator helpers.
  struct FenceOutcome {
    bool ok = true;
    std::vector<int> failed_nodes;
    uint64_t committed_delta = 0;
  };
  FenceOutcome Fence(Phase ended_phase, double phase_seconds);
  void StartPhaseOnNodes(Phase phase);
  /// Folds a fence outcome into the per-node consecutive-miss streaks
  /// (coordinator thread only) and returns the nodes whose streak reached
  /// StarOptions::fence_miss_threshold — the ones to actually write off.
  /// A node that answered (or a fully clean fence) resets its streak:
  /// that is what distinguishes slow from dead.
  std::vector<int> RegisterFenceMisses(const FenceOutcome& out);
  void HandleFailures(const std::vector<int>& newly_failed);
  void PerformRejoin(int node, uint64_t nonce);
  void UpdateTaus();
  /// First full replica healthy in the coordinator's authoritative view,
  /// falling back to the current designation.
  int ComputeMaster() const;
  /// Ships the authoritative view (plus the epoch to revert, 0 for none)
  /// to every healthy node and waits for the acks.
  void BroadcastView(uint64_t gen, uint64_t revert_epoch, int master);
  void CollectClusterSummary();

  // View application (every process).
  /// Installs a cluster view: health bits, transport up/down, designated
  /// master, replication targets, and hosted workers' partition lists.
  /// Generation-guarded and idempotent; returns true when `gen` was newly
  /// applied.  Callers must only invoke this while hosted workers are
  /// parked (construction, fences, view changes).
  bool ApplyView(uint64_t gen, int master, const std::vector<uint8_t>& status);
  void RebuildAssignmentsLocked(const std::vector<uint8_t>& status)
      STAR_REQUIRES(view_mu_);
  /// Reverts the uncommitted epoch (nonzero `revert_epoch`) and resets the
  /// replication counters on every hosted node.
  void RevertLocal(uint64_t revert_epoch);

  std::vector<int> HealthyNodes() const;

  StarOptions options_;
  const Workload& workload_;
  int num_nodes_;
  int num_partitions_;
  Placement placement_;
  bool coordinator_here_ = true;

  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Endpoint> coordinator_;  // endpoint id == num_nodes_
  /// nodes_[i] is null when node i lives in another process.
  std::vector<std::unique_ptr<Node>> nodes_;

  /// External request queues (serving front end): one per partition for
  /// single-partition writes (drained by the partitioned-phase owner, or by
  /// the master's workers during the single-master phase), one for
  /// cross-partition writes (master's workers only), one per hosted node
  /// for read-only requests (replica readers).
  std::vector<std::unique_ptr<ExternalQueue>> external_part_q_;
  std::unique_ptr<ExternalQueue> external_cross_q_;
  std::vector<std::unique_ptr<ExternalQueue>> external_read_q_;
  /// partition → hosted nodes with replica readers storing it (computed at
  /// Start; static routing — rejoin/failure re-routing is the serve layer's
  /// retry problem, not the queue's).
  std::vector<std::vector<int>> read_route_;
  std::atomic<size_t> read_rr_{0};
  /// Gate for SubmitExternal: true between Start() and the head of Stop().
  std::atomic<bool> external_accepting_{false};

  /// Replication targets per partition, derived from the applied view;
  /// only mutated while all hosted workers are parked (fence).
  /// replica_targets_: for partitioned-phase writers (storing minus the
  /// partition's master).  sm_targets_: for the single-master phase (every
  /// healthy node storing the partition except the designated master).
  std::vector<std::vector<int>> replica_targets_;
  std::vector<std::vector<int>> sm_targets_;

  std::thread coordinator_thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> epoch_{1};
  /// Coordinator-side cluster durable epoch: min over healthy nodes'
  /// fence-reported durable watermarks, clamped to the last committed
  /// epoch (epoch_ - 1) so a node that fsynced an epoch the fence later
  /// reverted can never drag E_d past what actually committed.
  std::atomic<uint64_t> cluster_durable_{0};
  std::atomic<SystemState> state_{SystemState::kStopped};
  std::vector<std::atomic<bool>> node_healthy_;

  /// Authoritative view, written only by the coordinator thread.
  std::vector<uint8_t> node_status_;
  uint64_t view_gen_ = 1;
  /// Consecutive fence misses per node (coordinator thread only; see
  /// RegisterFenceMisses / StarOptions::fence_miss_threshold).
  std::vector<int> fence_miss_;
  /// Applied-view guard: handlers on several control threads may receive
  /// the same broadcast; the first applies, the rest ack.
  Mutex view_mu_;
  uint64_t applied_view_gen_ STAR_GUARDED_BY(view_mu_) = 0;
  /// Last status applied per node, so transport up/down only follows
  /// *transitions* (an InjectFailure cut must survive unrelated views).
  std::vector<uint8_t> applied_status_ STAR_GUARDED_BY(view_mu_);

  // Rejoin requests: (node, incarnation nonce) pairs the coordinator picks
  // up between iterations.
  static constexpr uint64_t kInProcessNonce = 1;
  Mutex rejoin_mu_;
  std::vector<std::pair<int, uint64_t>> rejoin_requests_
      STAR_GUARDED_BY(rejoin_mu_);
  /// Per node: the incarnation nonce whose rejoin was granted (0 = none).
  /// The coordinator acks retried kRejoinRequests carrying this nonce and
  /// treats any other nonce as evidence of a fresh restart.  Cleared when
  /// the node fails (again).
  std::vector<std::atomic<uint64_t>> granted_nonce_;

  /// False only in a rejoining process before its re-admission view: the
  /// control plane ignores fences/pings so the fresh incarnation cannot
  /// impersonate the dead node it replaces.
  std::atomic<bool> admitted_{true};

  // Multi-process shutdown handshake.
  std::atomic<int> shutdown_seen_{0};
  ClusterSummary summary_;

  // Monitored throughputs for Equations (1)-(2).
  double tp_ = 0;  // partitioned-phase committed txns/sec
  double ts_ = 0;  // single-master-phase committed txns/sec
  double tau_p_ms_ = 0;
  double tau_s_ms_ = 0;
  uint64_t last_single_delta_ = 0;  // committed in the last partitioned phase
  uint64_t last_cross_delta_ = 0;   // committed in the last single-master phase
  /// Designated single-master; written by ApplyView, read by every worker's
  /// standby check (hence atomic — a worker of a freshly failed node may
  /// still be draining its current transaction when the view changes).
  std::atomic<int> master_node_{0};

  std::atomic<uint64_t> fence_count_{0};
  std::atomic<uint64_t> fence_ns_{0};
  std::atomic<uint64_t> fence_stop_ns_{0};   // stop+stats round time
  std::atomic<uint64_t> fence_drain_ns_{0};  // drain round time

  uint64_t measure_start_ns_ = 0;
  uint64_t net_bytes_at_reset_ = 0;
  uint64_t net_msgs_at_reset_ = 0;
  uint64_t net_dropped_bytes_at_reset_ = 0;
  uint64_t net_dropped_msgs_at_reset_ = 0;
};

}  // namespace star

#endif  // STAR_CORE_ENGINE_H_
