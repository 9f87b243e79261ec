#include "baselines/cluster_engine.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "cc/snapshot.h"

namespace star {

ClusterEngine::ClusterEngine(const BaselineOptions& options,
                             const Workload& workload, Placement placement,
                             int extra_endpoints)
    : options_(options),
      workload_(workload),
      num_nodes_(options.num_nodes),
      num_partitions_(options.num_partitions()),
      placement_(std::move(placement)),
      epoch_mgr_(options.epoch_ms) {
  net::TransportConfig tc;
  tc.kind = options_.transport;
  tc.sim.link_latency_us = options_.link_latency_us;
  tc.sim.local_latency_us = options_.local_latency_us;
  tc.sim.bandwidth_gbps = options_.bandwidth_gbps;
  tc.tcp.host = options_.tcp_host;
  tc.tcp.base_port = options_.tcp_base_port;
  transport_ = net::MakeTransport(num_nodes_ + extra_endpoints, tc);

  auto schemas = workload_.Schemas();
  for (int i = 0; i < num_nodes_; ++i) {
    auto node = std::make_unique<Node>();
    node->id = i;
    node->db = std::make_unique<Database>(schemas, num_partitions_,
                                          placement_.StoredPartitions(i),
                                          /*two_version=*/false);
    node->endpoint = std::make_unique<net::Endpoint>(
        transport_.get(), i, options_.io_threads_per_node);
    // 0 autosizes from the host core budget (ResolveReplayShards); the
    // resolved 1 then runs the sharded pipeline's single prefetched worker,
    // while an explicit 1 keeps the inline io-thread apply.
    int replay_shards = ResolveReplayShards(options_.replay_shards);
    bool sharded_replay = options_.replay_shards == 0 || replay_shards >= 2;
    node->counters = std::make_unique<ReplicationCounters>(
        num_nodes_, replay_shards, /*sent_lanes=*/options_.workers_per_node);
    node->applier = std::make_unique<ReplicationApplier>(node->db.get(),
                                                         node->counters.get());
    if (sharded_replay) {
      ShardedApplier::Options so;
      so.shards = replay_shards;
      node->sharded = std::make_unique<ShardedApplier>(
          node->db.get(), node->counters.get(), so);
      node->sharded->set_release_hook(
          [ep = node->endpoint.get()](std::string&& payload) {
            ep->ReleasePayload(std::move(payload));
          });
    }
    node->primaries = placement_.mastered_by(i);

    if (options_.durable_logging) {
      wal::LoggerPoolOptions lo;
      lo.dir = options_.log_dir;
      lo.node = i;
      lo.num_lanes = options_.workers_per_node;
      lo.num_loggers = options_.log_workers;
      lo.fsync = options_.fsync;
      node->logs = std::make_unique<wal::LoggerPool>(lo);
      // Baselines never rejoin mid-run; every incarnation is complete.
      node->logs->MarkComplete();
    }

    Node* n = node.get();
    node->endpoint->RegisterHandler(
        net::MsgType::kReplicationBatch, [n](net::Message&& m) {
          // Same dispatch as StarEngine: async batches ride the replay
          // pipeline when it exists; synchronous batches apply inline so
          // the ack certifies an *applied* write.
          if (n->sharded != nullptr && m.rpc_id == 0) {
            n->sharded->Submit(m.src, std::move(m.payload));
            return;
          }
          n->applier->ApplyBatch(m.src, m.payload);
          if (m.rpc_id != 0) {
            n->endpoint->Respond(m, net::MsgType::kReplicationAck, "");
          }
        });

    for (int w = 0; w < options_.workers_per_node; ++w) {
      uint64_t seed = options_.seed * 7349ull + i * 977 + w;
      uint64_t tid_thread =
          static_cast<uint64_t>(i) * options_.workers_per_node + w;
      auto ws = std::make_unique<WorkerState>(seed, tid_thread, w);
      ws->stream = std::make_unique<ReplicationStream>(
          node->endpoint.get(), node->counters.get(), num_nodes_,
          options_.rep_flush_bytes, /*lane=*/w);
      if (node->logs != nullptr) ws->wal = node->logs->lane(w);
      node->workers.push_back(std::move(ws));
    }
    for (int r = 0; r < options_.replica_read_workers; ++r) {
      uint64_t seed = options_.seed * 888121ull + i * 977 + r;
      node->readers.push_back(std::make_unique<ReaderState>(seed));
    }
    nodes_.push_back(std::move(node));
  }
}

ClusterEngine::~ClusterEngine() {
  if (running_.load(std::memory_order_acquire)) Stop();
}

void ClusterEngine::Start() {
  if (!transport_->Start()) {
    std::fprintf(stderr, "[star] transport failed to start (port taken?)\n");
    std::abort();
  }
  for (auto& node : nodes_) {
    for (int p = 0; p < num_partitions_; ++p) {
      if (node->db->HasPartition(p)) workload_.PopulatePartition(*node->db, p);
    }
  }
  running_.store(true, std::memory_order_release);
  epoch_mgr_.StartTimer();
  for (auto& node : nodes_) {
    if (node->sharded != nullptr) node->sharded->Start();
    node->endpoint->Start();
  }
  OnStart();
  for (auto& node : nodes_) {
    for (int w = 0; w < options_.workers_per_node; ++w) {
      node->threads.emplace_back(
          [this, n = node.get(), w] { WorkerLoop(*n, w); });
    }
    for (size_t r = 0; r < node->readers.size(); ++r) {
      node->reader_threads.emplace_back(
          [this, n = node.get(), r] { ReaderLoop(*n, static_cast<int>(r)); });
    }
  }
  ResetStats();
}

void ClusterEngine::ReaderLoop(Node& node, int reader_index) {
  ReaderState& r = *node.readers[reader_index];
  // No watermark: the baselines have no replication fence, so readers get
  // monotonic-fresh semantics only (each record individually committed,
  // per-record TIDs never regress; no cross-record snapshot).  The chassis
  // never reverts epochs or resets storage, so no pause handshake either.
  SnapshotContext ctx(node.db.get(), /*watermark=*/nullptr,
                      ReplicaReadMode::kMonotonic, &r.rng,
                      num_nodes_ * options_.workers_per_node +
                          node.id * static_cast<int>(node.readers.size()) +
                          reader_index);
  std::vector<int> parts = placement_.StoredPartitions(node.id);
  size_t rr = static_cast<size_t>(
      r.rng.Uniform(static_cast<uint64_t>(parts.size())));
  uint32_t txn_since_yield = 0;
  while (running_.load(std::memory_order_acquire)) {
    int partition = parts[rr++ % parts.size()];
    TxnRequest req = workload_.MakeReadOnly(r.rng, partition, num_partitions_);
    if (req.proc == nullptr) return;  // workload has no read-only class
    ctx.Begin();
    TxnStatus status = req.proc(ctx);
    if (status == TxnStatus::kCommitted && ctx.Commit()) {
      r.committed.fetch_add(1, std::memory_order_relaxed);
    } else if (ctx.conflicted()) {
      r.conflicts.fetch_add(1, std::memory_order_relaxed);
    } else {
      r.aborted.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.yield_every_n_txns != 0 &&
        ++txn_since_yield >= options_.yield_every_n_txns) {
      txn_since_yield = 0;
      std::this_thread::yield();
    }
  }
}

void ClusterEngine::WorkerLoop(Node& node, int worker_index) {
  WorkerState& w = *node.workers[worker_index];
  SiloContext ctx(node.db.get(), &w.rng,
                  node.id * options_.workers_per_node + worker_index);
  while (running_.load(std::memory_order_acquire)) {
    ctx.Reset();
    w.stats.MaybeResetLatency();
    RunOne(node, w, ctx);
    uint64_t cur = epoch_mgr_.Current();
    // Silo durable-epoch protocol: between transactions, every future
    // commit from this worker carries epoch >= cur, so everything below
    // cur is final for this lane — certify it to the logger fleet (the
    // on-disk durable epoch is then the min over lanes).
    if (w.wal != nullptr && cur - 1 > w.wal_marked) {
      w.wal_marked = cur - 1;
      w.wal->MarkEpoch(w.wal_marked);
    }
    w.tracker.Drain(cur, NowNanos(), w.stats.latency);
    if (options_.yield_every_n_txns != 0 &&
        ++w.txn_since_yield >= options_.yield_every_n_txns) {
      w.txn_since_yield = 0;
      std::this_thread::yield();
    }
  }
  // Flush outstanding replication and release remaining group commits.
  w.stream->FlushAll();
  if (w.wal != nullptr) w.wal->MarkEpoch(epoch_mgr_.Current());
  w.tracker.DrainAll(NowNanos(), w.stats.latency);
}

bool ClusterEngine::ReplicateSyncAndWait(Node& node, WorkerState& w,
                                         uint64_t tid,
                                         const WriteSet& writes) {
  // Per-worker scratch: the sync path must not regress the zero-allocation
  // hot path (buffer capacity and recycled payload-pool strings persist
  // across commits).
  if (w.sync_batches.size() != static_cast<size_t>(num_nodes_)) {
    w.sync_batches.resize(num_nodes_);
  }
  auto& batches = w.sync_batches;
  for (const auto& e : writes.entries()) {
    int owner = placement_.master(e.partition);
    for (int dst : placement_.storing(e.partition)) {
      // Skip ourselves and the partition owner: the owner installs the
      // write in the commit's install round, and its copy of the record is
      // lock-held by this very transaction — replicating to it would wedge
      // its io thread on our own lock (io-thread self-deadlock).
      if (dst == node.id || dst == owner) continue;
      if (e.is_delete) {
        SerializeDeleteEntry(batches[dst], e.table, e.partition, e.key, tid);
      } else {
        SerializeValueEntry(batches[dst], e.table, e.partition, e.key, tid,
                            writes.ValueView(e));
      }
    }
  }
  auto& tokens = w.sync_tokens;
  tokens.clear();
  for (int dst = 0; dst < num_nodes_; ++dst) {
    if (batches[dst].empty()) continue;
    tokens.push_back(node.endpoint->CallAsync(
        dst, net::MsgType::kReplicationBatch, batches[dst].Release()));
    batches[dst].Adopt(node.endpoint->AcquirePayload());
  }
  bool ok = true;
  for (uint64_t t : tokens) {
    if (!node.endpoint->Wait(t, nullptr,
                             MillisToNanos(options_.rpc_timeout_ms))) {
      ok = false;
    }
  }
  return ok;
}

Metrics ClusterEngine::Snapshot() const {
  Metrics m;
  for (const auto& node : nodes_) {
    for (const auto& w : node->workers) {
      m.committed += w->stats.committed.load(std::memory_order_relaxed);
      m.aborted += w->stats.aborted.load(std::memory_order_relaxed);
      m.aborted_user += w->stats.aborted_user.load(std::memory_order_relaxed);
      m.single_partition +=
          w->stats.single_partition.load(std::memory_order_relaxed);
      m.cross_partition +=
          w->stats.cross_partition.load(std::memory_order_relaxed);
      m.latency.Merge(w->stats.latency);
    }
    for (const auto& r : node->readers) {
      m.replica_reads += r->committed.load(std::memory_order_relaxed);
      m.replica_read_aborts += r->aborted.load(std::memory_order_relaxed);
      m.replica_read_conflicts +=
          r->conflicts.load(std::memory_order_relaxed);
    }
    if (node->logs != nullptr) {
      m.wal_bytes += node->logs->bytes_written();
      m.wal_fsyncs += node->logs->fsyncs();
      m.wal_batches += node->logs->batches();
      m.wal_epoch_markers += node->logs->epoch_markers();
    }
  }
  m.durable_epoch = durable_epoch();
  m.seconds = (NowNanos() - measure_start_ns_) / 1e9;
  m.network_bytes = transport_->total_bytes() - net_bytes_at_reset_;
  m.network_messages = transport_->total_messages() - net_msgs_at_reset_;
  m.network_dropped_bytes =
      transport_->dropped_bytes() - net_dropped_bytes_at_reset_;
  m.network_dropped_messages =
      transport_->dropped_messages() - net_dropped_msgs_at_reset_;
  return m;
}

void ClusterEngine::ResetStats() {
  bool live = running_.load(std::memory_order_acquire);
  for (auto& node : nodes_) {
    for (auto& w : node->workers) {
      // Also clears the latency histogram (warm-up samples must not leak
      // into the measured window).  While running, the histogram reset is
      // deferred to the owning worker; on a stopped engine, do it directly.
      w->stats.Reset();
      if (!live) w->stats.MaybeResetLatency();
    }
    for (auto& r : node->readers) {
      r->committed.store(0, std::memory_order_relaxed);
      r->aborted.store(0, std::memory_order_relaxed);
      r->conflicts.store(0, std::memory_order_relaxed);
    }
  }
  net_bytes_at_reset_ = transport_->total_bytes();
  net_msgs_at_reset_ = transport_->total_messages();
  net_dropped_bytes_at_reset_ = transport_->dropped_bytes();
  net_dropped_msgs_at_reset_ = transport_->dropped_messages();
  measure_start_ns_ = NowNanos();
}

Metrics ClusterEngine::Stop() {
  Metrics before = Snapshot();
  double seconds = before.seconds;
  OnStopBegin();
  running_.store(false, std::memory_order_release);
  for (auto& node : nodes_) {
    for (auto& t : node->threads) {
      if (t.joinable()) t.join();
    }
    node->threads.clear();
    for (auto& t : node->reader_threads) {
      if (t.joinable()) t.join();
    }
    node->reader_threads.clear();
  }
  // The workers flushed their replication streams on exit, but those
  // batches may still sit in the transport: stopping the io threads now
  // would strand them, and a backup would diverge from its primary.  Wait
  // until every replica has applied what was sent to it, bounded by the
  // RPC timeout because a batch the transport lost is never applied.
  auto replication_drained = [this] {
    for (const auto& dst : nodes_) {
      for (const auto& src : nodes_) {
        if (src != dst && dst->counters->applied_from(src->id) <
                              src->counters->sent_to(dst->id)) {
          return false;
        }
      }
    }
    return true;
  };
  uint64_t deadline = NowNanos() + MillisToNanos(options_.rpc_timeout_ms);
  while (!replication_drained() && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  epoch_mgr_.StopTimer();
  for (auto& node : nodes_) {
    node->endpoint->Stop();
    // Io threads are gone: drain the shard queues and join the replay
    // workers so every accepted batch reaches the store before teardown.
    if (node->sharded != nullptr) node->sharded->Stop();
    if (node->logs != nullptr) node->logs->Stop();
  }
  transport_->Stop();
  Metrics m = Snapshot();
  m.seconds = seconds;
  return m;
}

}  // namespace star
