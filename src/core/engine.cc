#include "core/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "cc/snapshot.h"
#include "storage/checksum.h"

namespace star {

namespace {

/// Payload helpers for the coordination messages (Figure 5's protocol).

std::string EncodePhaseStart(Phase phase, uint64_t epoch, int master,
                             uint64_t durable) {
  WriteBuffer b;
  b.Write<uint8_t>(static_cast<uint8_t>(phase));
  b.Write<uint64_t>(epoch);
  b.Write<int32_t>(master);
  // Trailing field (readers treat it as optional for compatibility): the
  // cluster durable epoch E_d the fence derived — the coordinator's
  // "durable through E_d" announcement piggybacking on the phase start.
  b.Write<uint64_t>(durable);
  return b.Release();
}

std::string EncodeExpected(const std::vector<uint64_t>& expected) {
  WriteBuffer b;
  b.Write<uint32_t>(static_cast<uint32_t>(expected.size()));
  for (uint64_t e : expected) b.Write<uint64_t>(e);
  return b.Release();
}

/// The generation-numbered view broadcast: every process installs the same
/// health/mastership state, so multi-process deployments never rely on
/// shared memory.
std::string EncodeView(uint64_t gen, uint64_t revert_epoch, int master,
                       const std::vector<uint8_t>& status) {
  WriteBuffer b;
  b.Write<uint64_t>(gen);
  b.Write<uint64_t>(revert_epoch);
  b.Write<int32_t>(master);
  b.Write<uint32_t>(static_cast<uint32_t>(status.size()));
  for (uint8_t s : status) b.Write<uint8_t>(s);
  return b.Release();
}

}  // namespace

StarEngine::StarEngine(const StarOptions& options, const Workload& workload)
    : options_(options),
      workload_(workload),
      num_nodes_(options.cluster.nodes()),
      num_partitions_(options.cluster.num_partitions()),
      placement_(Placement::Star(options.cluster.full_replicas,
                                 options.cluster.partial_replicas,
                                 num_partitions_)),
      node_healthy_(num_nodes_) {
  // Hosting scope: by default one process hosts the whole cluster; in
  // multi-process mode only the listed nodes (and maybe the coordinator).
  coordinator_here_ = !options_.multiprocess || options_.hosted_coordinator;
  std::vector<bool> hosted(num_nodes_, !options_.multiprocess);
  if (options_.multiprocess) {
    assert(options_.transport == net::TransportKind::kTcp &&
           "multi-process deployment requires the TCP transport");
    for (int i : options_.hosted_nodes) {
      if (i >= 0 && i < num_nodes_) hosted[i] = true;
    }
  }

  net::TransportConfig tc;
  tc.kind = options_.transport;
  tc.sim.link_latency_us = options_.cluster.link_latency_us;
  tc.sim.local_latency_us = options_.cluster.local_latency_us;
  tc.sim.bandwidth_gbps = options_.cluster.bandwidth_gbps;
  tc.tcp.host = options_.tcp_host;
  tc.tcp.base_port = options_.tcp_base_port;
  tc.fault = options_.fault;
  if (options_.multiprocess) {
    for (int i = 0; i < num_nodes_; ++i) {
      if (hosted[i]) tc.tcp.local_endpoints.push_back(i);
    }
    if (coordinator_here_) tc.tcp.local_endpoints.push_back(num_nodes_);
  }
  // +1 endpoint: the stand-alone phase-switching coordinator (Section 4.3).
  // It needs an io thread of its own to receive fence responses.
  transport_ = net::MakeTransport(num_nodes_ + 1, tc);
  if (coordinator_here_) {
    coordinator_ = std::make_unique<net::Endpoint>(transport_.get(),
                                                   num_nodes_,
                                                   /*io_threads=*/1);
    // Restarted node processes announce themselves here.  A request is
    // itself proof the node's process restarted — under fail-stop the old
    // incarnation cannot speak — so it is queued even when the crash has
    // not been detected by a fence timeout yet (PerformRejoin runs the
    // failure handling first in that case).  The ack is only sent once the
    // rejoin has been granted; until then the requester keeps retrying.
    coordinator_->RegisterHandler(
        net::MsgType::kRejoinRequest, [this](net::Message&& m) {
          ReadBuffer in(m.payload);
          int32_t id = in.Read<int32_t>();
          uint64_t nonce = in.Read<uint64_t>();
          if (id < 0 || id >= num_nodes_ || nonce == 0) return;
          if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
            std::fprintf(stderr,
                         "[star] %.3f kRejoinRequest id=%d nonce=%llu "
                         "granted=%llu\n",
                         NowNanos() / 1e9, id, (unsigned long long)nonce,
                         (unsigned long long)granted_nonce_[id].load(
                             std::memory_order_acquire));
          }
          if (granted_nonce_[id].load(std::memory_order_acquire) == nonce) {
            coordinator_->Respond(m, net::MsgType::kRejoinRequest, "");
          } else {
            MutexLock g(rejoin_mu_);
            bool pending = false;
            for (auto& [r, n] : rejoin_requests_) {
              pending |= (r == id && n == nonce);
            }
            if (!pending) rejoin_requests_.emplace_back(id, nonce);
          }
        });
  }

  bool durable = options_.durable_logging;
  if (durable) {
    std::filesystem::create_directories(options_.log_dir);
  }

  auto schemas = workload_.Schemas();
  int workers = options_.cluster.workers_per_node;
  int io_threads = options_.cluster.io_threads_per_node;
  // replay_shards == 0 autosizes from the host core budget; the resolved
  // count of 1 then still uses the sharded pipeline's single prefetched
  // worker, while an explicit 1 keeps the legacy inline io-thread apply.
  int replay_shards = ResolveReplayShards(options_.cluster.replay_shards);
  bool sharded_replay =
      options_.cluster.replay_shards == 0 || replay_shards >= 2;

  for (int i = 0; i < num_nodes_; ++i) {
    node_healthy_[i].store(true, std::memory_order_relaxed);
    if (!hosted[i]) {
      nodes_.push_back(nullptr);
      continue;
    }
    auto node = std::make_unique<Node>();
    node->id = i;
    node->db = std::make_unique<Database>(schemas, num_partitions_,
                                          placement_.StoredPartitions(i),
                                          options_.two_version);
    node->endpoint =
        std::make_unique<net::Endpoint>(transport_.get(), i, io_threads);
    // One applied-counter lane per replay shard, so parallel replay workers
    // never serialise on a shared cacheline (lane 0 doubles as the inline
    // io-thread applier's lane), and one sent-counter lane per worker so hot
    // senders never false-share one AddSent cacheline.
    node->counters = std::make_unique<ReplicationCounters>(
        num_nodes_, replay_shards, /*sent_lanes=*/workers);
    node->watermark = std::make_unique<AppliedEpochWatermark>(num_nodes_);
    for (int r = 0; r < options_.replica_read_workers; ++r) {
      uint64_t seed = options_.cluster.seed * 888121ull + i * 131 + r;
      node->readers.push_back(std::make_unique<ReaderState>(seed));
    }
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

    // Log lanes: one per worker thread, then one per io thread, then one
    // per replay shard (replicated writes are logged by the thread that
    // applies them, Section 5).  The lanes hand published buffers to the
    // logger-pool fleet, which owns write()/fsync() and advances this
    // node's durable epoch — commit latency no longer contains storage
    // latency (group commit, wal/logger.h).
    if (durable) {
      wal::LoggerPoolOptions lo;
      lo.dir = options_.log_dir;
      lo.node = i;
      lo.num_lanes =
          workers + io_threads + (sharded_replay ? replay_shards : 0);
      lo.num_loggers = options_.log_workers;
      lo.fsync = options_.fsync;
      lo.affinity = options_.logger_affinity;
      lo.segment_bytes = options_.wal_segment_bytes;
      node->logs = std::make_unique<wal::LoggerPool>(lo);
      if (!options_.rejoining) {
        // This incarnation's logs are a complete recovery basis from the
        // start (the node populates or recovers locally).  A rejoining
        // process must wait: its basis is complete only once the rejoin
        // fetch finishes (kRejoinFetch marks it then).
        node->logs->MarkComplete();
      }
      node->applier->set_wal_hook(
          [lane = node->logs->lane(workers)](int32_t t, int32_t p,
                                             uint64_t key, uint64_t tid,
                                             std::string_view val,
                                             bool deleted) {
            // io threads share the trailing lanes; with one io thread (the
            // default) this is the single lane at index `workers`.
            if (deleted) {
              lane->AppendDelete(t, p, key, tid);
            } else {
              lane->Append(t, p, key, tid, val);
            }
          });
      if (sharded_replay) {
        // Each replay worker owns its own lane — appends never contend,
        // and the control thread's fence marks (kFenceExpect) cover these
        // trailing lanes like the io-thread lanes.
        for (int s = 0; s < replay_shards; ++s) {
          wal::LogLane* lane = node->logs->lane(workers + io_threads + s);
          node->sharded->set_wal_hook(
              s, [lane](int32_t t, int32_t p, uint64_t key, uint64_t tid,
                        std::string_view val, bool deleted) {
                if (deleted) {
                  lane->AppendDelete(t, p, key, tid);
                } else {
                  lane->Append(t, p, key, tid, val);
                }
              });
        }
      }
      if (options_.checkpointing) {
        // The checkpoint ceiling is the cluster durable epoch: a checkpoint
        // must never capture an epoch that could still revert, and E_d by
        // construction only covers committed, everywhere-fsynced epochs.
        node->checkpointer = std::make_unique<wal::Checkpointer>(
            node->db.get(), options_.log_dir, i, &node->durable_cluster,
            static_cast<size_t>(std::max(0, options_.checkpoint_max_chain)));
        node->logs->AttachCheckpointer(node->checkpointer.get(),
                                       options_.checkpoint_period_ms);
      }
    }

    for (int w = 0; w < workers; ++w) {
      uint64_t seed = options_.cluster.seed * 1000003ull + i * 131 + w;
      uint64_t tid_thread = static_cast<uint64_t>(i) * workers + w;
      auto ws = std::make_unique<WorkerState>(seed, tid_thread);
      ws->stream = std::make_unique<ReplicationStream>(
          node->endpoint.get(), node->counters.get(), num_nodes_,
          options_.cluster.rep_flush_bytes, /*lane=*/w);
      if (durable) ws->wal = node->logs->lane(w);
      node->workers.push_back(std::move(ws));
    }

    // --- io-thread handlers ---
    Node* n = node.get();
    node->endpoint->RegisterHandler(
        net::MsgType::kReplicationBatch, [this, n](net::Message&& m) {
          // Replication from a node declared failed is ignored (Section
          // 4.5.2: healthy nodes "safely ignore all replication messages
          // from failed nodes").  Counted: a silently vanishing batch is
          // indistinguishable from a replication bug otherwise.
          if (!node_healthy_[m.src].load(std::memory_order_acquire)) {
            n->replication_ignored.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          if (n->sharded != nullptr && m.rpc_id == 0) {
            // Route to the replay workers without copying: the batch takes
            // the payload with it, and the last worker to finish a segment
            // returns the buffer to the pool (zero-copy dispatch contract).
            n->sharded->Submit(m.src, std::move(m.payload));
            return;
          }
          // Inline serial apply: the default path, and the synchronous-
          // replication path even when sharding is on — a sync commit's ack
          // certifies the write has been *applied*, so it must not ride an
          // asynchronous queue.  (Sync batches are value entries, order-free
          // under the Thomas rule against anything the shards apply.)
          n->applier->ApplyBatch(m.src, m.payload);
          if (m.rpc_id != 0) {  // synchronous replication wants an ack
            n->endpoint->Respond(m, net::MsgType::kReplicationAck, "");
          }
        });
    node->endpoint->RegisterHandler(
        net::MsgType::kSnapshotRequest, [n](net::Message&& m) {
          ReadBuffer in(m.payload);
          int32_t t = in.Read<int32_t>();
          int32_t p = in.Read<int32_t>();
          WriteBuffer out;
          HashTable* ht = n->db->table(t, p);
          if (ht != nullptr) {
            std::string scratch(ht->value_size(), '\0');
            ht->ForEach([&](uint64_t key, Record* rec, char* value) {
              uint64_t w =
                  rec->ReadStable(scratch.data(), scratch.size(), value);
              if (Record::IsAbsent(w)) return;
              out.Write<uint64_t>(key);
              out.Write<uint64_t>(Record::TidOf(w));
              out.WriteBytes(scratch.data(), scratch.size());
            });
          }
          n->endpoint->Respond(m, net::MsgType::kSnapshotResponse,
                               out.Release());
        });
    // Delta donor for the incremental rejoin path: streams only records —
    // including tombstones — whose TID epoch moved past `since_epoch`.  A
    // rejoining node that recovered locally through epoch R asks for
    // (R, now] instead of the whole table; bytes shipped scale with the
    // delta, not the data size.  The frame opens with the byte size a
    // kSnapshotResponse for the same table and partition would carry right
    // now (key, tid, length and value per present record), so the
    // rejoining node can report its fetch against the full-snapshot cost
    // measured in the same run.
    node->endpoint->RegisterHandler(
        net::MsgType::kDeltaRequest, [n](net::Message&& m) {
          ReadBuffer in(m.payload);
          int32_t t = in.Read<int32_t>();
          int32_t p = in.Read<int32_t>();
          uint64_t since = in.Read<uint64_t>();
          constexpr uint64_t kSnapshotRecordHeader =
              2 * sizeof(uint64_t) + sizeof(uint32_t);
          uint64_t full_bytes = 0;
          WriteBuffer out;
          out.Write<uint64_t>(0);  // full_bytes, patched below
          HashTable* ht = n->db->table(t, p);
          if (ht != nullptr) {
            std::string scratch(ht->value_size(), '\0');
            ht->ForEach([&](uint64_t key, Record* rec, char* value) {
              uint64_t w =
                  rec->ReadStable(scratch.data(), scratch.size(), value);
              if (!Record::IsAbsent(w)) {
                full_bytes += kSnapshotRecordHeader + scratch.size();
              }
              uint64_t tid = Record::TidOf(w);
              if (tid == 0 || Tid::Epoch(tid) <= since) return;
              bool deleted = Record::IsAbsent(w);
              out.Write<uint64_t>(key);
              out.Write<uint64_t>(tid);
              out.Write<uint8_t>(deleted ? 1 : 0);
              if (!deleted) out.WriteBytes(scratch.data(), scratch.size());
            });
          }
          out.Patch<uint64_t>(0, full_bytes);
          n->endpoint->Respond(m, net::MsgType::kDeltaResponse,
                               out.Release());
        });
    // Liveness probe for the multi-process startup barrier.  Gated on
    // admission like the fence messages: a fresh rejoin process must look
    // dead until the coordinator re-admits it.
    node->endpoint->RegisterHandler(
        net::MsgType::kPing, [this, n](net::Message&& m) {
          if (!admitted_.load(std::memory_order_acquire)) return;
          n->endpoint->Respond(m, net::MsgType::kPong, "");
        });
    // Control-plane messages are executed serially by the control thread.
    for (auto type :
         {net::MsgType::kPhaseStart, net::MsgType::kFenceStop,
          net::MsgType::kFenceExpect, net::MsgType::kViewChange,
          net::MsgType::kRejoinFetch, net::MsgType::kShutdown}) {
      node->endpoint->RegisterHandler(type, [n](net::Message&& m) {
        {
          MutexLock g(n->mail_mu);
          n->mail.push_back(std::move(m));
        }
        n->mail_cv.NotifyOne();
      });
    }

    nodes_.push_back(std::move(node));
  }

  replica_targets_.resize(num_partitions_);
  sm_targets_.resize(num_partitions_);

  // External request queues (serving front end).  Allocated even when no
  // server attaches: the per-iteration cost for workers is one relaxed
  // depth load per poll.
  external_part_q_.reserve(static_cast<size_t>(num_partitions_));
  for (int p = 0; p < num_partitions_; ++p) {
    external_part_q_.push_back(std::make_unique<ExternalQueue>());
  }
  external_cross_q_ = std::make_unique<ExternalQueue>();
  external_read_q_.resize(static_cast<size_t>(num_nodes_));
  for (int n = 0; n < num_nodes_; ++n) {
    if (nodes_[n] != nullptr) {
      external_read_q_[n] = std::make_unique<ExternalQueue>();
    }
  }
  read_route_.resize(static_cast<size_t>(num_partitions_));

  // A rejoining process stays invisible to fences and pings until the
  // coordinator's re-admission view arrives; everyone else is a member
  // from the start.
  admitted_.store(!options_.rejoining, std::memory_order_release);

  // Initial view: everyone healthy, first full replica designated master.
  granted_nonce_ = std::vector<std::atomic<uint64_t>>(num_nodes_);
  for (auto& g : granted_nonce_) g.store(0, std::memory_order_relaxed);
  node_status_.assign(num_nodes_, kNodeHealthy);
  applied_status_.assign(num_nodes_, kNodeHealthy);
  ApplyView(view_gen_, ComputeMaster(), node_status_);
}

StarEngine::~StarEngine() {
  if (running_.load(std::memory_order_acquire)) Stop();
}

std::vector<int> StarEngine::HealthyNodes() const {
  std::vector<int> out;
  for (int i = 0; i < num_nodes_; ++i) {
    if (node_healthy_[i].load(std::memory_order_acquire)) out.push_back(i);
  }
  return out;
}

int StarEngine::ComputeMaster() const {
  // Designated master for the single-master phase: the first fully healthy
  // full replica (a rejoining one masters nothing until its fetch is done).
  for (int i = 0; i < options_.cluster.full_replicas; ++i) {
    if (node_status_[i] == kNodeHealthy) return i;
  }
  return master_node_.load(std::memory_order_relaxed);
}

bool StarEngine::ApplyView(uint64_t gen, int master,
                           const std::vector<uint8_t>& status) {
  MutexLock g(view_mu_);
  if (gen <= applied_view_gen_) return false;
  applied_view_gen_ = gen;
  master_node_.store(master, std::memory_order_relaxed);
  for (int i = 0; i < num_nodes_; ++i) {
    bool healthy = status[i] != kNodeDown;
    node_healthy_[i].store(healthy, std::memory_order_release);
    // Transport links follow *transitions* only: a node the view still
    // believes healthy may have been cut manually by InjectFailure and must
    // not be resurrected by an unrelated view change.
    if (status[i] == kNodeDown && applied_status_[i] != kNodeDown) {
      transport_->SetDown(i, true);
    } else if (status[i] != kNodeDown && applied_status_[i] == kNodeDown) {
      transport_->SetDown(i, false);
    }
    applied_status_[i] = status[i];
  }
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    // A failed source leaves every hosted watermark's minimum (its stream
    // is ignored from here on, so it could never publish again and would
    // freeze the snapshot watermark forever).  A rejoining source stays in:
    // it replicates normally and is fence-drained like a healthy one.
    for (int i = 0; i < num_nodes_; ++i) {
      node->watermark->SetActive(i, status[i] != kNodeDown);
    }
    // Replica readers serve only from fully healthy nodes (see Node::serving
    // — a rejoining node's watermark is ahead of its still-fetching store).
    node->serving.store(status[node->id] == kNodeHealthy,
                        std::memory_order_release);
  }
  RebuildAssignmentsLocked(status);
  return true;
}

void StarEngine::RebuildAssignmentsLocked(const std::vector<uint8_t>& status) {
  // Deterministic function of (placement, status, master): every process
  // computes the same assignment from the same broadcast, so mastership
  // never depends on shared memory.  Callers hold view_mu_ and hosted
  // workers are parked.
  int workers = options_.cluster.workers_per_node;

  // Effective master of each partition: its placement master if fully
  // healthy, otherwise the first healthy full replica (Case 3's "mastership
  // of records on lost partitions [is] reassigned to the nodes with full
  // replicas"; a rejoining node's partitions park there too until its
  // snapshot fetch completes).
  int full_fallback = -1;
  for (int i = 0; i < options_.cluster.full_replicas; ++i) {
    if (status[i] == kNodeHealthy) {
      full_fallback = i;
      break;
    }
  }
  std::vector<int> eff_master(num_partitions_, -1);
  for (int p = 0; p < num_partitions_; ++p) {
    int m = placement_.master(p);
    if (status[m] != kNodeHealthy) m = full_fallback;
    eff_master[p] = m;
    replica_targets_[p].clear();
    for (int s : placement_.storing(p)) {
      if (s != m && status[s] != kNodeDown) {
        replica_targets_[p].push_back(s);
      }
    }
    sm_targets_[p].clear();
    int master = master_node_.load(std::memory_order_relaxed);
    for (int s : placement_.storing(p)) {
      if (s != master && status[s] != kNodeDown) {
        sm_targets_[p].push_back(s);
      }
    }
  }

  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    for (auto& w : node->workers) w->partitions.clear();
    int next = 0;
    for (int p = 0; p < num_partitions_; ++p) {
      if (eff_master[p] != node->id) continue;
      node->workers[next % workers]->partitions.push_back(p);
      ++next;
    }
  }
}

void StarEngine::RevertLocal(uint64_t revert_epoch) {
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    // Failed nodes are out of the view: they are never revert targets (the
    // broadcast only reaches healthy nodes), and — when hosted — their
    // parked workers may already be exiting through a concurrent Stop(),
    // so their trackers must not be touched from this thread.
    if (!node_healthy_[node->id].load(std::memory_order_acquire)) continue;
    // Quiesce the replay pipeline: queued batches belong to the epoch
    // being reverted, so they must be applied (the revert below discards
    // them) — a replay worker installing a reverted-epoch write *after*
    // RevertEpoch would resurrect discarded data and diverge this replica.
    // The wait is unbounded on purpose (like PerformRejoin's): all workers
    // are parked cluster-wide here, so the queues only shrink.
    if (node->sharded != nullptr) node->sharded->Drain();
    if (revert_epoch != 0) {
      // Poison the reverted epoch in the WAL *before* discarding it from
      // memory: the revert entry drags every lane's durable watermark below
      // revert_epoch, so a crash after this point can never replay writes
      // the cluster just agreed to discard (wal/logger.h).
      if (node->logs != nullptr) node->logs->MarkRevert(revert_epoch);
      // Replica readers must not race the revert: RevertEpoch restores the
      // backup copy with a plain memcpy *before* the word store, which a
      // concurrent optimistic read could observe as a torn value under a
      // matching word.  Clamp the watermark first so no reader re-pins the
      // dying epoch, then park them for the duration.
      node->watermark->Revert(revert_epoch);
      PauseReaders(*node);
      node->db->RevertEpoch(revert_epoch);
      ResumeReaders(*node);
      for (auto& w : node->workers) {
        w->tracker.DropFrom(revert_epoch);
      }
    }
    node->counters->Reset();
  }
}

void StarEngine::PauseReaders(Node& node) {
  if (node.readers.empty()) return;
  node.readers_pause.store(true, std::memory_order_release);
  for (auto& r : node.readers) {
    // Terminates: a paused reader parks within one bounded transaction
    // attempt (bounded optimistic reads, bounded retry budget), and an
    // exiting reader parks on its way out.
    while (!r->parked.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
}

void StarEngine::ResumeReaders(Node& node) {
  if (node.readers.empty()) return;
  node.readers_pause.store(false, std::memory_order_release);
}

void StarEngine::BroadcastView(uint64_t gen, uint64_t revert_epoch,
                               int master) {
  std::string payload = EncodeView(gen, revert_epoch, master, node_status_);
  auto healthy = HealthyNodes();
  std::vector<uint64_t> tokens;
  for (int i : healthy) {
    tokens.push_back(
        coordinator_->CallAsync(i, net::MsgType::kViewChange, payload));
  }
  Rng rng(gen ^ 0x5bd1e995ull);
  for (size_t k = 0; k < tokens.size(); ++k) {
    uint64_t t0 = NowNanos();
    bool ok = coordinator_->Wait(tokens[k], nullptr,
                                 MillisToNanos(options_.fence_timeout_ms));
    // A node that never receives this view runs on a stale one until the
    // silence watchdog parks it; bounded re-sends (safe — ApplyView is
    // generation-guarded and idempotent) close that window under message
    // loss.  Still best-effort: a genuinely dead node fails fences anyway.
    double backoff = options_.coord_backoff_min_ms;
    for (int a = 0; !ok && a < options_.coord_rpc_retries; ++a) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(backoff * (0.5 + rng.NextDouble()) * 1000)));
      backoff = std::min(backoff * 2, options_.coord_backoff_max_ms);
      uint64_t tok =
          coordinator_->CallAsync(healthy[k], net::MsgType::kViewChange,
                                  payload);
      ok = coordinator_->Wait(tok, nullptr,
                              MillisToNanos(options_.fence_timeout_ms));
    }
    if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
      std::fprintf(stderr,
                   "[star] %.3f view gen %llu ack node %d ok=%d %.0fms\n",
                   NowNanos() / 1e9, (unsigned long long)gen, healthy[k],
                   ok ? 1 : 0, (NowNanos() - t0) / 1e6);
    }
  }
}

void StarEngine::Start() {
  assert(!running_.load(std::memory_order_acquire));

  if (!transport_->Start()) {
    // A node that cannot listen must die loudly, not limp along silently
    // (Release builds compile assert() out; the smoke tests run Release).
    std::fprintf(stderr, "[star] transport failed to start (port taken?)\n");
    std::abort();
  }

  // Populate every hosted replica of every partition deterministically.  A
  // rejoining process without local logs starts empty on purpose: its state
  // comes from the snapshot fetch plus live replication (Section 4.5.3,
  // Case 1).  A rejoining process *with* recover_on_start populates first —
  // the deterministic load is the base the WAL replay below builds on, and
  // the delta fetch only ships records whose epoch exceeds what recovery
  // reconstructed (load records carry epoch 0 and are never in a delta).
  if (!options_.rejoining || options_.recover_on_start) {
    for (auto& node : nodes_) {
      if (node == nullptr) continue;
      for (int p = 0; p < num_partitions_; ++p) {
        if (node->db->HasPartition(p)) {
          workload_.PopulatePartition(*node->db, p);
        }
      }
    }
  }

  // Crash recovery: rebuild each hosted node's database from its checkpoint
  // chain + WAL tail (wal::Recover) before any thread serves it.  Must run
  // after populate — Database::Load would clobber recovered rows — and the
  // recovered epoch is what turns a rejoin's full snapshot refetch into a
  // delta fetch (ControlLoop, kRejoinFetch).
  if (options_.recover_on_start && options_.durable_logging) {
    for (auto& node : nodes_) {
      if (node == nullptr) continue;
      wal::RecoveryResult rr =
          wal::Recover(node->db.get(), options_.log_dir, node->id);
      node->recovered_epoch = rr.committed_epoch;
      // Once the checkpoint chain durably covers this epoch, the logger
      // pool may sweep the prior incarnations' files it was rebuilt from.
      if (node->logs != nullptr) {
        node->logs->SetPriorCommitted(rr.committed_epoch);
      }
    }
  }

  running_.store(true, std::memory_order_release);
  state_.store(SystemState::kRunning, std::memory_order_release);

  UpdateTaus();

  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    // Replay workers must be up before the io threads can route to them.
    if (node->sharded != nullptr) node->sharded->Start();
    node->endpoint->Start();
    node->control_running.store(true, std::memory_order_release);
    node->control_thread = std::thread([this, n = node.get()] {
      ControlLoop(*n);
    });
    int workers = options_.cluster.workers_per_node;
    for (int w = 0; w < workers; ++w) {
      node->worker_threads.emplace_back(
          [this, n = node.get(), w] { WorkerLoop(*n, w); });
    }
    for (size_t r = 0; r < node->readers.size(); ++r) {
      node->reader_threads.emplace_back(
          [this, n = node.get(), r] { ReaderLoop(*n, static_cast<int>(r)); });
    }
    // Checkpoint cadence is driven by logger thread 0 (AttachCheckpointer in
    // the constructor) — a checkpoint taken off the logger's own clock can
    // never outrun the durable epoch it snapshots against.
  }
  if (coordinator_here_) {
    coordinator_->Start();
    coordinator_thread_ = std::thread([this] { CoordinatorLoop(); });
  }

  // Static read routing for external read-only requests: every hosted node
  // with replica readers that stores the partition.
  for (int p = 0; p < num_partitions_; ++p) {
    read_route_[p].clear();
    for (const auto& node : nodes_) {
      if (node == nullptr || node->readers.empty()) continue;
      if (node->db->HasPartition(p)) read_route_[p].push_back(node->id);
    }
  }
  external_accepting_.store(true, std::memory_order_release);

  ResetStats();
}

// ---------------------------------------------------------------------------
// Coordinator (Figure 5)
// ---------------------------------------------------------------------------

void StarEngine::UpdateTaus() {
  // Equations (1)-(2): pick tau_p + tau_s = e such that the fraction of
  // committed work that is cross-partition equals P.  The paper solves the
  // equations with the monitored throughputs t_p, t_s; we drive the same
  // fixed point with a multiplicative feedback step on the *achieved* mix of
  // the last iteration, which stays accurate even when fence overhead
  // stretches the effective phase lengths (common on small hosts).
  double e = options_.iteration_ms;
  double P = options_.cross_fraction;
  if (P <= 0) {
    tau_p_ms_ = e;
    tau_s_ms_ = 0;
    return;
  }
  if (P >= 1) {
    tau_p_ms_ = 0;
    tau_s_ms_ = e;
    return;
  }
  if (tau_s_ms_ <= 0) {  // bootstrap: assume t_p == t_s
    // Clamp both phases into [min_phase_ms, e - min_phase_ms]: with P close
    // to 0 or 1 the raw split would assign one phase a vanishing (or, with
    // out-of-range P inputs, negative) share and that phase would never run
    // — the feedback step below can then never correct it, because it only
    // rescales a nonzero tau.
    tau_s_ms_ = std::clamp(P * e, options_.min_phase_ms,
                           e - options_.min_phase_ms);
    tau_p_ms_ = e - tau_s_ms_;
    return;
  }
  uint64_t single = last_single_delta_;
  uint64_t cross = last_cross_delta_;
  if (single + cross == 0) return;
  double achieved =
      static_cast<double>(cross) / static_cast<double>(single + cross);
  double step = achieved > 0 ? std::clamp(P / achieved, 0.5, 2.0) : 2.0;
  double tau_s = std::clamp(tau_s_ms_ * step, options_.min_phase_ms,
                            e - options_.min_phase_ms);
  tau_s_ms_ = tau_s;
  tau_p_ms_ = e - tau_s;
}

void StarEngine::StartPhaseOnNodes(Phase phase) {
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  std::string payload = EncodePhaseStart(
      phase, epoch, master_node_.load(std::memory_order_relaxed),
      cluster_durable_.load(std::memory_order_acquire));
  std::vector<std::pair<int, uint64_t>> tokens;
  for (int i : HealthyNodes()) {
    tokens.emplace_back(
        i, coordinator_->CallAsync(i, net::MsgType::kPhaseStart, payload));
  }
  // The acks only pace the coordinator (per-link FIFO already guarantees a
  // node sees the phase start before the following fence messages), so cap
  // the wait: blocking a full fence timeout here would serialise with the
  // fence's own timeout and double failure-detection latency.
  uint64_t wait_ns = MillisToNanos(
      std::min(options_.fence_timeout_ms, options_.phase_ack_wait_ms));
  Rng rng(epoch ^ 0xA5A5A5A5ull);
  for (auto& [i, tok] : tokens) {
    bool ok = coordinator_->Wait(tok, nullptr, wait_ns);
    // A missed ack under a gray network may mean the phase start itself was
    // lost; bounded re-sends keep the node from sitting parked for a whole
    // iteration.  Safe: phase re-entry is idempotent (same phase + epoch,
    // fresh seq), and a genuinely dead node fails the fence as before.
    double backoff = options_.coord_backoff_min_ms;
    for (int a = 0; !ok && a < options_.coord_rpc_retries; ++a) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<int64_t>(backoff * (0.5 + rng.NextDouble()) * 1000)));
      backoff = std::min(backoff * 2, options_.coord_backoff_max_ms);
      uint64_t retok =
          coordinator_->CallAsync(i, net::MsgType::kPhaseStart, payload);
      ok = coordinator_->Wait(retok, nullptr, wait_ns);
    }
  }
}

StarEngine::FenceOutcome StarEngine::Fence(Phase ended_phase,
                                           double phase_seconds) {
  FenceOutcome out;
  uint64_t t0 = NowNanos();
  uint64_t phase_start_ns = t0 - static_cast<uint64_t>(phase_seconds * 1e9);
  auto healthy = HealthyNodes();

  // Round 1: stop workers, collect committed counts + cumulative sent
  // counters ("all participant nodes synchronize statistics about the
  // number of committed transactions", Section 4.3).
  std::vector<uint64_t> tokens(num_nodes_, 0);
  for (int i : healthy) {
    tokens[i] = coordinator_->CallAsync(i, net::MsgType::kFenceStop, "");
  }
  // sent[src][dst], cumulative since the last counter reset.
  std::vector<std::vector<uint64_t>> sent(num_nodes_,
                                          std::vector<uint64_t>(num_nodes_, 0));
  uint64_t committed_delta = 0;
  // Durable-epoch piggyback: each stats response may carry the node's local
  // durable epoch (min over its loggers); the cluster durable epoch E_d is
  // the min over healthy nodes — but never past epoch_-1, because an epoch
  // only *commits* when its fence succeeds.  A node whose loggers fsynced
  // epoch E just before the fence that reverts E must not push E into E_d.
  uint64_t durable_min = ~0ull;
  for (int i : healthy) {
    std::string resp;
    if (!coordinator_->Wait(tokens[i], &resp,
                            MillisToNanos(options_.fence_timeout_ms))) {
      out.failed_nodes.push_back(i);
      continue;
    }
    ReadBuffer in(resp);
    committed_delta += in.Read<uint64_t>();
    uint32_t n = in.Read<uint32_t>();
    for (uint32_t d = 0; d < n; ++d) sent[i][d] = in.Read<uint64_t>();
    if (in.remaining() >= sizeof(uint64_t)) {
      durable_min = std::min(durable_min, in.Read<uint64_t>());
    } else {
      durable_min = 0;  // node without durable logging: E_d stays at 0
    }
  }
  out.committed_delta = committed_delta;
  if (out.failed_nodes.empty() && durable_min != ~0ull) {
    uint64_t committed = epoch_.load(std::memory_order_acquire) - 1;
    uint64_t ed = std::min(durable_min, committed);
    uint64_t cur = cluster_durable_.load(std::memory_order_relaxed);
    if (ed > cur) cluster_durable_.store(ed, std::memory_order_release);
  }

  // Throughput monitoring (t_p, t_s of Equation 2), measured over the real
  // execution window: phase start until the stop round completed (workers
  // keep committing until they observe the fence).
  double exec_seconds = (NowNanos() - phase_start_ns) / 1e9;
  if (exec_seconds > 0) {
    double rate = committed_delta / exec_seconds;
    double a = options_.throughput_ewma;
    if (ended_phase == Phase::kPartitioned) {
      tp_ = tp_ > 0 ? a * rate + (1 - a) * tp_ : rate;
      last_single_delta_ = committed_delta;
    } else if (ended_phase == Phase::kSingleMaster) {
      ts_ = ts_ > 0 ? a * rate + (1 - a) * ts_ : rate;
      last_cross_delta_ = committed_delta;
    }
  }

  if (!out.failed_nodes.empty()) {
    out.ok = false;
    return out;  // caller runs failure handling; no epoch advance
  }
  uint64_t t_stop_done = NowNanos();
  fence_stop_ns_.fetch_add(t_stop_done - t0, std::memory_order_relaxed);

  // Round 2: each node waits for the replication stream it is owed ("nodes
  // then wait until they have received and applied all writes").
  for (int d : healthy) {
    std::vector<uint64_t> expected(num_nodes_, 0);
    for (int s : healthy) expected[s] = sent[s][d];
    tokens[d] = coordinator_->CallAsync(d, net::MsgType::kFenceExpect,
                                        EncodeExpected(expected));
  }
  for (int d : healthy) {
    std::string resp;
    if (!coordinator_->Wait(tokens[d], &resp,
                            MillisToNanos(options_.fence_timeout_ms) * 4)) {
      out.failed_nodes.push_back(d);
    }
  }
  if (!out.failed_nodes.empty()) {
    out.ok = false;
    return out;
  }

  fence_drain_ns_.fetch_add(NowNanos() - t_stop_done,
                            std::memory_order_relaxed);
  // The fence is an epoch boundary (Section 3).
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  fence_count_.fetch_add(1, std::memory_order_relaxed);
  fence_ns_.fetch_add(NowNanos() - t0, std::memory_order_relaxed);
  return out;
}

void StarEngine::CoordinatorLoop() {
  if (options_.multiprocess) {
    // Startup barrier: node processes may still be binding/connecting.
    // Ping each one until it answers, so the first fence is not a spurious
    // failure detection; genuine stragglers fail the usual way afterwards.
    uint64_t deadline = NowNanos() + MillisToNanos(options_.startup_barrier_ms);
    for (int i = 0; i < num_nodes_; ++i) {
      while (running_.load(std::memory_order_acquire) &&
             NowNanos() < deadline) {
        std::string resp;
        if (coordinator_->Call(i, net::MsgType::kPing, "", &resp,
                               MillisToNanos(250))) {
          break;
        }
      }
    }
  }

  while (running_.load(std::memory_order_acquire)) {
    // Handle rejoin requests at iteration boundaries (all nodes parked).
    std::vector<std::pair<int, uint64_t>> rejoin;
    {
      MutexLock g(rejoin_mu_);
      rejoin.swap(rejoin_requests_);
    }
    for (auto& [j, nonce] : rejoin) PerformRejoin(j, nonce);

    UpdateTaus();

    if (tau_p_ms_ > 0) {
      uint64_t t0 = NowNanos();
      StartPhaseOnNodes(Phase::kPartitioned);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(tau_p_ms_ * 1000)));
      double secs = (NowNanos() - t0) / 1e9;
      FenceOutcome out = Fence(Phase::kPartitioned, secs);
      std::vector<int> dead = RegisterFenceMisses(out);
      if (!out.ok) {
        // Below the miss threshold the fence simply retries next iteration:
        // no epoch was advanced, re-fencing is idempotent, and a slow node
        // gets another chance to answer before being written off.
        if (!dead.empty()) HandleFailures(dead);
        continue;
      }
    }
    if (!running_.load(std::memory_order_acquire)) break;
    if (tau_s_ms_ > 0) {
      uint64_t t0 = NowNanos();
      StartPhaseOnNodes(Phase::kSingleMaster);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(tau_s_ms_ * 1000)));
      double secs = (NowNanos() - t0) / 1e9;
      FenceOutcome out = Fence(Phase::kSingleMaster, secs);
      std::vector<int> dead = RegisterFenceMisses(out);
      if (!out.ok) {
        if (!dead.empty()) HandleFailures(dead);
        continue;
      }
    }
    if (state_.load(std::memory_order_acquire) != SystemState::kRunning) {
      break;  // failure handling downgraded the system; stop switching
    }
  }
  // Park everyone.
  StartPhaseOnNodes(Phase::kStopped);
}

std::vector<int> StarEngine::RegisterFenceMisses(const FenceOutcome& out) {
  if (fence_miss_.size() != static_cast<size_t>(num_nodes_)) {
    fence_miss_.assign(static_cast<size_t>(num_nodes_), 0);
  }
  std::vector<int> write_off;
  if (out.ok) {
    std::fill(fence_miss_.begin(), fence_miss_.end(), 0);
    return write_off;
  }
  std::vector<bool> missed(static_cast<size_t>(num_nodes_), false);
  for (int f : out.failed_nodes) missed[static_cast<size_t>(f)] = true;
  const int threshold = std::max(1, options_.fence_miss_threshold);
  for (int i = 0; i < num_nodes_; ++i) {
    if (!node_healthy_[i].load(std::memory_order_acquire)) continue;
    if (missed[static_cast<size_t>(i)]) {
      if (++fence_miss_[static_cast<size_t>(i)] >= threshold) {
        write_off.push_back(i);
      }
    } else {
      // It answered this fence: slow earlier, not dead.
      fence_miss_[static_cast<size_t>(i)] = 0;
    }
  }
  if (std::getenv("STAR_DEBUG_FAILURES") != nullptr && write_off.empty()) {
    std::fprintf(stderr, "[star] %.3f fence miss below threshold:",
                 NowNanos() / 1e9);
    for (int f : out.failed_nodes) {
      std::fprintf(stderr, " %d(%d/%d)", f,
                   fence_miss_[static_cast<size_t>(f)], threshold);
    }
    std::fprintf(stderr, "\n");
  }
  return write_off;
}

void StarEngine::HandleFailures(const std::vector<int>& newly_failed) {
  if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
    std::fprintf(stderr, "[star] %.3f HandleFailures:", NowNanos() / 1e9);
    for (int f : newly_failed) std::fprintf(stderr, " %d", f);
    std::fprintf(stderr, "\n");
  }
  uint64_t reverted_epoch = epoch_.load(std::memory_order_acquire);

  // 1. Update the authoritative view: io threads immediately start ignoring
  //    replication from failed nodes, the transport cuts their links
  //    (fail-stop), and — if a "crashed" node is hosted here (failure
  //    injection) — its workers park.
  for (int f : newly_failed) {
    node_status_[f] = kNodeDown;
    granted_nonce_[f].store(0, std::memory_order_release);
    if (static_cast<size_t>(f) < fence_miss_.size()) {
      fence_miss_[static_cast<size_t>(f)] = 0;  // fresh streak if it rejoins
    }
    if (nodes_[f] != nullptr) {
      Node& n = *nodes_[f];
      n.fenced.store(true, std::memory_order_release);
      uint64_t word = n.phase_word.load(std::memory_order_acquire);
      n.phase_word.store(PackPhase(Phase::kStopped, SeqOf(word) + 1),
                         std::memory_order_release);
    }
  }
  // Healthy nodes' workers are provably parked (they answered the fence
  // stop round).  Fenced-off hosted nodes park asynchronously — and that
  // set is wider than `newly_failed`: a node cut by InjectFailure moments
  // ago may not have been *detected* yet (it is neither in this failure
  // batch nor did it answer the fence, its acks were dropped) while its
  // workers are still draining their last transaction.  Wait for every
  // hosted node carrying the fenced latch, so the assignment rebuild below
  // cannot race any straggler.  The wait terminates: every worker code
  // path re-checks the phase word within one transaction, a transaction's
  // length is bounded (synchronous-replication waits carry timeouts), and
  // the fenced latch keeps stale phase starts from un-parking anyone.
  // Like the kFenceStop handler's own park loop, this must not give up
  // early.
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    if (!node->fenced.load(std::memory_order_acquire)) continue;
    for (auto& w : node->workers) {
      while (!w->parked_flag.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
  uint64_t gen = ++view_gen_;
  int master = ComputeMaster();
  ApplyView(gen, master, node_status_);

  // Give io threads a moment to finish in-flight batches from the failed
  // node (they belong to the epoch being reverted anyway).
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  // 2. Classification (Section 4.5.3).  A "complete partial replica" exists
  //    when the healthy partial nodes collectively store every partition.
  bool full_ok = false;
  for (int i = 0; i < options_.cluster.full_replicas; ++i) {
    if (node_healthy_[i].load(std::memory_order_acquire)) full_ok = true;
  }
  bool partial_complete = true;
  for (int p = 0; p < num_partitions_; ++p) {
    bool covered = false;
    for (int s : placement_.storing(p)) {
      if (s >= options_.cluster.full_replicas &&
          node_healthy_[s].load(std::memory_order_acquire)) {
        covered = true;
      }
    }
    if (!covered) partial_complete = false;
  }

  // 3. Revert the uncommitted epoch on every hosted node, then broadcast
  //    the view + revert epoch so sibling processes do the same and resync
  //    their replication accounting (Figure 6).
  RevertLocal(reverted_epoch);
  BroadcastView(gen, reverted_epoch, master);

  if (!full_ok) {
    state_.store(partial_complete ? SystemState::kFallbackDistributed
                                  : SystemState::kUnavailable,
                 std::memory_order_release);
    return;
  }
  // Cases 1 and 3: continue with the phase-switching algorithm.  (With no
  // partial replicas left, every partition is mastered by the full replica
  // and the partitioned phase degenerates to single-node execution, which
  // is the paper's "runs transactions only on full replicas" mode.)
}

void StarEngine::PerformRejoin(int j, uint64_t nonce) {
  if (granted_nonce_[j].load(std::memory_order_acquire) == nonce) {
    return;  // stale duplicate from an incarnation already admitted
  }
  if (node_status_[j] == kNodeRejoining) return;  // already in progress
  if (node_status_[j] == kNodeHealthy) {
    // The rejoin request outran failure detection: the fresh incarnation
    // came up before a fence timed out on the dead one (or the node
    // restarted *again* during a rejoin).  The request itself is the crash
    // notice — under fail-stop the admitted incarnation cannot have sent a
    // nonce we have not granted — so run the failure path now instead of
    // waiting for the timeout.
    HandleFailures({j});
    if (state_.load(std::memory_order_acquire) != SystemState::kRunning) {
      return;
    }
  }
  if (node_status_[j] != kNodeDown) return;

  // Stage 1: re-admit the node as a storage target with no masterships.
  // Its database restarts empty (crash lost memory — explicit reset when
  // the node lives in this process, a genuinely fresh incarnation when it
  // is a restarted process); live replication resumes immediately, and a
  // background fetch copies the partitions from healthy replicas (Case 1:
  // "it copies data from remote nodes ... In parallel, it processes updates
  // from the relevant currently healthy nodes using the Thomas write rule").
  if (nodes_[j] != nullptr) {
    // Quiesce the node's io threads across the storage swap: an ApplyBatch
    // that started before the failure cut must not overlap (and must
    // happen-before) the table teardown.  Replay workers hold queued
    // batches beyond the io threads, so they are drained too (the io
    // threads are stopped, so the queues only empty) — a replay worker
    // touching a hash table across ResetStorage would be a use-after-free.
    nodes_[j]->endpoint->Stop();
    if (nodes_[j]->sharded != nullptr) nodes_[j]->sharded->Drain();
    // Replica readers hold raw Record pointers across a transaction
    // attempt; park them across the table teardown (use-after-free
    // otherwise) and zero the watermark — the empty store serves no
    // snapshot until fences re-publish every source.  Readers stay
    // effectively out of service anyway until the stage-3 view flips
    // Node::serving back on.
    PauseReaders(*nodes_[j]);
    nodes_[j]->watermark->Reset();
    nodes_[j]->db->ResetStorage();
    ResumeReaders(*nodes_[j]);
    nodes_[j]->endpoint->Start();
    nodes_[j]->fenced.store(false, std::memory_order_release);
  }
  node_status_[j] = kNodeRejoining;
  uint64_t gen = ++view_gen_;
  int master = ComputeMaster();
  ApplyView(gen, master, node_status_);
  // The node's counters are stale; reset the accounting everywhere while
  // all workers are parked (nothing to revert; the broadcast's gen guard
  // makes sibling processes do the same).
  RevertLocal(0);
  BroadcastView(gen, /*revert_epoch=*/0, master);
  // From here on, retried kRejoinRequests from this incarnation are
  // acknowledged (and recognised as duplicates by the rejoin queue).
  granted_nonce_[j].store(nonce, std::memory_order_release);

  if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
    std::fprintf(stderr,
                 "[star] %.3f PerformRejoin(%d): stage 1 view gen %llu\n",
                 NowNanos() / 1e9, j, static_cast<unsigned long long>(gen));
  }
  // Stage 2: kick off the snapshot fetch on node j's control thread.
  uint64_t tok = coordinator_->CallAsync(j, net::MsgType::kRejoinFetch, "");

  // Let the system run while the fetch proceeds; poll for completion.
  // (The fetch response arrives via the RPC reply.)
  uint64_t deadline = NowNanos() + MillisToNanos(30'000);
  bool done = false;
  while (NowNanos() < deadline && running_.load(std::memory_order_acquire)) {
    // Run a few iterations while fetching, so recovery overlaps processing.
    UpdateTaus();
    uint64_t t0 = NowNanos();
    StartPhaseOnNodes(Phase::kPartitioned);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(tau_p_ms_ * 1000)));
    FenceOutcome out = Fence(Phase::kPartitioned, (NowNanos() - t0) / 1e9);
    std::vector<int> dead = RegisterFenceMisses(out);
    if (!out.ok) {
      if (!dead.empty()) {
        HandleFailures(dead);
        return;
      }
      continue;  // below threshold: retry the fence, keep the fetch going
    }
    if (coordinator_->IsReady(tok)) {
      coordinator_->Wait(tok, nullptr, 1);
      done = true;
      break;
    }
  }
  if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
    std::fprintf(stderr, "[star] %.3f PerformRejoin(%d): fetch done=%d\n",
                 NowNanos() / 1e9, j, done ? 1 : 0);
  }
  if (done) {
    // Stage 3: fully healthy — restore j's masterships everywhere.
    node_status_[j] = kNodeHealthy;
    gen = ++view_gen_;
    master = ComputeMaster();
    ApplyView(gen, master, node_status_);
    BroadcastView(gen, /*revert_epoch=*/0, master);
  }
}

// ---------------------------------------------------------------------------
// Node control thread (fence participation, Figure 5 right-hand side)
// ---------------------------------------------------------------------------

void StarEngine::ControlLoop(Node& node) {
  uint64_t seq = 0;
  // Gray-partition self-defence: every mailbox message is coordinator-
  // originated, so prolonged mailbox silence on a running cluster means
  // this node cannot hear the coordinator — it may be running on a stale
  // view (e.g. serving a partition whose mastership moved).  After the
  // silence budget it parks itself (workers stop committing, replica
  // readers stop serving) and the next coordinator message un-parks it.
  const double silence_ms =
      options_.coordinator_silence_ms == 0
          ? std::max(3000.0, options_.fence_timeout_ms * 8)
          : options_.coordinator_silence_ms;
  const uint64_t silence_ns = MillisToNanos(std::max(silence_ms, 0.0));
  uint64_t last_coord_ns = NowNanos();
  bool self_parked = false;
  while (node.control_running.load(std::memory_order_acquire)) {
    net::Message msg;
    bool have_msg = false;
    {
      MutexLock lk(node.mail_mu);
      if (node.mail.empty() &&
          node.control_running.load(std::memory_order_acquire)) {
        // Bounded single wait instead of a predicate wait: the outer loop
        // re-checks both conditions, so a spurious or missed wakeup costs at
        // most one 50 ms lap (the same bound the timeout already imposed).
        node.mail_cv.WaitFor(lk, std::chrono::milliseconds(50));
      }
      if (!node.mail.empty()) {
        msg = std::move(node.mail.front());
        node.mail.pop_front();
        have_msg = true;
      }
    }
    if (!have_msg) {
      if (silence_ms > 0 && !self_parked &&
          NowNanos() - last_coord_ns >= silence_ns &&
          admitted_.load(std::memory_order_acquire) &&
          !node.fenced.load(std::memory_order_acquire) &&
          running_.load(std::memory_order_acquire)) {
        self_parked = true;
        uint64_t word = node.phase_word.load(std::memory_order_acquire);
        if (PhaseOf(word) != Phase::kStopped) {
          node.phase_word.store(PackPhase(Phase::kStopped, SeqOf(word) + 1),
                                std::memory_order_release);
        }
        PauseReaders(node);
        if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
          std::fprintf(stderr,
                       "[star] %.3f node %d self-parked: coordinator silent "
                       "%.0f ms\n",
                       NowNanos() / 1e9, node.id, silence_ms);
        }
      }
      continue;
    }
    last_coord_ns = NowNanos();
    if (self_parked) {
      // The coordinator is reachable again; the message being dispatched
      // (typically the next kPhaseStart or view) restores worker state.
      self_parked = false;
      ResumeReaders(node);
      if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
        std::fprintf(stderr, "[star] %.3f node %d un-parked: coordinator back\n",
                     NowNanos() / 1e9, node.id);
      }
    }
    switch (msg.type) {
      case net::MsgType::kFenceStop: {
        if (!admitted_.load(std::memory_order_acquire)) break;
        // Enter the fence: park workers, then report statistics.
        node.parked.store(0, std::memory_order_release);
        node.phase_word.store(PackPhase(Phase::kFence, ++seq),
                              std::memory_order_release);
        int want = static_cast<int>(node.workers.size());
        // Stop() joins the workers before this thread: a fence stop still
        // being handled after they exited must not wait for them forever.
        while (node.parked.load(std::memory_order_acquire) < want &&
               node.control_running.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        uint64_t committed = 0;
        for (auto& w : node.workers) {
          committed += w->stats.committed.load(std::memory_order_relaxed);
        }
        // ResetStats() may have zeroed the worker counters since the last
        // fence; a plain subtraction would underflow and report a garbage
        // delta to the throughput monitor for one iteration.
        uint64_t delta = committed >= node.reported_committed
                             ? committed - node.reported_committed
                             : committed;
        WriteBuffer b;
        b.Write<uint64_t>(delta);
        node.reported_committed = committed;
        b.Write<uint32_t>(static_cast<uint32_t>(num_nodes_));
        for (int d = 0; d < num_nodes_; ++d) {
          b.Write<uint64_t>(node.counters->sent_to(d));
        }
        // Durable-epoch piggyback: the fence already synchronises every
        // node, so the local durable epoch rides the stats reply for free
        // (trailing field — old parsers simply stop short of it).  ~0 means
        // "no logging here": it never constrains the coordinator's min.
        b.Write<uint64_t>(node.logs != nullptr ? node.logs->durable_epoch()
                                               : ~0ull);
        node.endpoint->Respond(msg, net::MsgType::kFenceStats, b.Release());
        break;
      }
      case net::MsgType::kFenceExpect: {
        if (!admitted_.load(std::memory_order_acquire)) break;
        ReadBuffer in(msg.payload);
        uint32_t n = in.Read<uint32_t>();
        std::vector<uint64_t> expected(n);
        for (uint32_t s = 0; s < n; ++s) expected[s] = in.Read<uint64_t>();
        // Wait for the replication stream to drain.
        uint64_t deadline =
            NowNanos() + MillisToNanos(options_.fence_timeout_ms * 4);
        for (uint32_t s = 0; s < n; ++s) {
          if (static_cast<int>(s) == node.id) continue;
          while (node.counters->applied_from(s) < expected[s] &&
                 NowNanos() < deadline &&
                 !transport_->IsDown(static_cast<int>(s))) {
            std::this_thread::yield();
          }
        }
        // Mark the io/replay-shard lanes; workers marked theirs at park.
        // MarkEpoch only publishes the buffered batch to the logger threads
        // — no disk I/O on the fence path; durability catches up through
        // the durable epoch instead of stalling the fence.
        uint64_t epoch = node.epoch.load(std::memory_order_acquire);
        if (node.logs != nullptr) {
          for (int i = static_cast<int>(node.workers.size());
               i < node.logs->num_lanes(); ++i) {
            node.logs->lane(i)->MarkEpoch(epoch);
          }
        }
        // Stage the applied-epoch watermark for the epoch this fence ends.
        // Re-check each source's drain rather than trusting the loop exit:
        // a deadline or IsDown exit means the stream is NOT known applied
        // and must not count.  Own writes are applied at commit, so the
        // node itself always drains.  Publication is deferred to the next
        // phase start (see kPhaseStart): this node draining does not yet
        // mean the fence committed — a peer's timeout can still revert the
        // epoch, and a watermark published now would hand replica readers
        // an uncommitted snapshot.
        node.staged_epoch = epoch;
        node.staged_drained.assign(num_nodes_, 0);
        for (uint32_t s = 0;
             s < n && s < static_cast<uint32_t>(num_nodes_); ++s) {
          if (static_cast<int>(s) == node.id ||
              node.counters->applied_from(s) >= expected[s]) {
            node.staged_drained[s] = 1;
          }
        }
        node.endpoint->Respond(msg, net::MsgType::kFenceDrained, "");
        break;
      }
      case net::MsgType::kPhaseStart: {
        if (!admitted_.load(std::memory_order_acquire)) break;
        if (node.fenced.load(std::memory_order_acquire)) {
          // This node was written off while the phase start was in flight;
          // unparking its workers now would race the coordinator's
          // assignment rebuild.  Ack and stay parked.
          node.endpoint->Respond(msg, net::MsgType::kPhaseStart, "");
          break;
        }
        ReadBuffer in(msg.payload);
        Phase phase = static_cast<Phase>(in.Read<uint8_t>());
        uint64_t epoch = in.Read<uint64_t>();
        (void)in.Read<int32_t>();  // master id: carried by view broadcasts
        // Optional trailing field: the cluster durable epoch E_d computed
        // at the last fence.  Workers in commit_wait=durable mode release
        // results against this (monotonic — a rebooted coordinator may
        // briefly broadcast a smaller value).
        if (in.remaining() >= sizeof(uint64_t)) {
          uint64_t ed = in.Read<uint64_t>();
          if (ed > node.durable_cluster.load(std::memory_order_relaxed)) {
            node.durable_cluster.store(ed, std::memory_order_release);
          }
        }
        if (node.staged_epoch != 0 && epoch > node.staged_epoch) {
          // The epoch advanced past the staged fence, which proves that
          // fence committed cluster-wide (the coordinator only advances
          // after every node drained) — the staged epoch can no longer be
          // reverted, so it is safe to hand to replica readers.  A failed
          // fence never advances the epoch, so its staging is re-done (with
          // fresh flags) by the retried fence before any publish.
          for (int s = 0; s < num_nodes_; ++s) {
            if (node.staged_drained[s] != 0) {
              node.watermark->Publish(s, node.staged_epoch);
            }
          }
          node.staged_epoch = 0;
        }
        node.epoch.store(epoch, std::memory_order_release);
        node.parked.store(0, std::memory_order_release);
        node.phase_word.store(PackPhase(phase, ++seq),
                              std::memory_order_release);
        node.endpoint->Respond(msg, net::MsgType::kPhaseStart, "");
        break;
      }
      case net::MsgType::kViewChange: {
        ReadBuffer in(msg.payload);
        uint64_t gen = in.Read<uint64_t>();
        uint64_t revert_epoch = in.Read<uint64_t>();
        int32_t master = in.Read<int32_t>();
        uint32_t n = in.Read<uint32_t>();
        if (n != static_cast<uint32_t>(num_nodes_) || master < 0 ||
            master >= num_nodes_) {
          // Malformed/truncated view (version skew, corrupt frame):
          // applying it would index out of bounds.  Drop without acking so
          // the sender retries or times out.
          break;
        }
        std::vector<uint8_t> status(n);
        for (uint32_t i = 0; i < n; ++i) status[i] = in.Read<uint8_t>();
        // The first control thread in this process installs the view (the
        // coordinator's own process applied it before broadcasting, so its
        // nodes just ack); the revert only runs where the view was new.
        if (ApplyView(gen, master, status)) {
          if (revert_epoch != 0) {
            // Let io threads finish in-flight batches from failed nodes
            // (they belong to the epoch being reverted anyway).
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          RevertLocal(revert_epoch);
        }
        // Receiving any view broadcast means the coordinator counts this
        // node as a member (re-admission for a rejoining process).
        admitted_.store(true, std::memory_order_release);
        node.endpoint->Respond(msg, net::MsgType::kViewChange, "");
        break;
      }
      case net::MsgType::kShutdown: {
        // Final round of the multi-process protocol: report this node's
        // totals and per-partition checksums (workers are parked and the
        // final fence drained all replication, so the store is quiescent).
        uint64_t committed = 0, cross = 0;
        for (auto& w : node.workers) {
          committed += w->stats.committed.load(std::memory_order_relaxed);
          cross += w->stats.cross_partition.load(std::memory_order_relaxed);
        }
        WriteBuffer b;
        b.Write<uint64_t>(committed);
        b.Write<uint64_t>(cross);
        std::vector<int> parts = placement_.StoredPartitions(node.id);
        b.Write<uint32_t>(static_cast<uint32_t>(parts.size()));
        for (int p : parts) {
          b.Write<int32_t>(p);
          b.Write<uint64_t>(DatabasePartitionChecksum(*node.db, p));
        }
        node.endpoint->Respond(msg, net::MsgType::kShutdown, b.Release());
        shutdown_seen_.fetch_add(1, std::memory_order_acq_rel);
        break;
      }
      case net::MsgType::kRejoinFetch: {
        // Fetch on a helper thread: the control loop must stay responsive
        // to fences while recovery proceeds in parallel (Case 1).
        std::thread([this, &node, msg = std::move(msg)] {
        // With a recovered epoch (local checkpoint chain + log tail already
        // replayed in Start) the node asks donors only for records whose
        // epoch exceeds it: bytes streamed are O(changes since the crash),
        // not O(table).  Fetched records go through the io log lane like
        // any other applied write, so a crash mid-rejoin replays them.
        uint64_t since = node.recovered_epoch;
        wal::LogLane* lane =
            node.logs != nullptr
                ? node.logs->lane(static_cast<int>(node.workers.size()))
                : nullptr;
        for (int p = 0; p < num_partitions_; ++p) {
          if (!placement_.IsStored(node.id, p)) continue;
          int donor = -1;
          for (int s : placement_.storing(p)) {
            if (s != node.id &&
                node_healthy_[s].load(std::memory_order_acquire)) {
              donor = s;
              break;
            }
          }
          if (donor < 0) continue;
          for (int t = 0; t < node.db->num_tables(); ++t) {
            WriteBuffer req;
            req.Write<int32_t>(t);
            req.Write<int32_t>(p);
            if (since > 0) req.Write<uint64_t>(since);
            net::MsgType kind = since > 0 ? net::MsgType::kDeltaRequest
                                          : net::MsgType::kSnapshotRequest;
            std::string resp;
            if (!node.endpoint->Call(donor, kind, req.Release(), &resp)) {
              if (std::getenv("STAR_DEBUG_FAILURES") != nullptr) {
                std::fprintf(stderr,
                             "[star] node %d: %s fetch t%d p%d from %d "
                             "FAILED\n",
                             node.id, since > 0 ? "delta" : "snapshot", t, p,
                             donor);
              }
              continue;
            }
            node.rejoin_bytes.fetch_add(resp.size(),
                                        std::memory_order_relaxed);
            HashTable* ht = node.db->table(t, p);
            ReadBuffer in(resp);
            if (since > 0) {
              // Delta frame: the donor's full-snapshot byte count, then
              // key, tid, deleted flag, value when present (tombstones
              // ship without a payload).
              node.rejoin_full_bytes.fetch_add(in.Read<uint64_t>(),
                                               std::memory_order_relaxed);
              while (!in.Done()) {
                uint64_t key = in.Read<uint64_t>();
                uint64_t tid = in.Read<uint64_t>();
                uint8_t deleted = in.Read<uint8_t>();
                HashTable::Row row = ht->GetOrInsertRow(key);
                if (deleted != 0) {
                  row.rec->ApplyThomasDelete(tid, row.size, row.value,
                                             node.db->two_version());
                  if (lane != nullptr) lane->AppendDelete(t, p, key, tid);
                } else {
                  std::string_view value = in.ReadBytes();
                  row.rec->ApplyThomas(tid, value.data(), row.size,
                                       row.value, node.db->two_version());
                  if (lane != nullptr) lane->Append(t, p, key, tid, value);
                }
              }
            } else {
              node.rejoin_full_bytes.fetch_add(resp.size(),
                                               std::memory_order_relaxed);
              while (!in.Done()) {
                uint64_t key = in.Read<uint64_t>();
                uint64_t tid = in.Read<uint64_t>();
                std::string_view value = in.ReadBytes();
                HashTable::Row row = ht->GetOrInsertRow(key);
                row.rec->ApplyThomas(tid, value.data(), row.size, row.value,
                                     node.db->two_version());
                if (lane != nullptr) lane->Append(t, p, key, tid, value);
              }
            }
          }
        }
        // The incarnation now holds a complete image (recovered base +
        // fetched delta): mark it so a later crash may trust these logs.
        if (node.logs != nullptr) node.logs->MarkComplete();
        node.endpoint->Respond(msg, net::MsgType::kRejoinDone, "");
        }).detach();
        break;
      }
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

void StarEngine::WorkerLoop(Node& node, int worker_index) {
  WorkerState& w = *node.workers[worker_index];
  SiloContext ctx(node.db.get(), &w.rng,
                  node.id * options_.cluster.workers_per_node + worker_index);
  PreInstallHook sync_hook;
  if (options_.replication == ReplicationMode::kSyncValue) {
    sync_hook = [this, &node, &w](uint64_t tid, WriteSet& ws) {
      return SyncReplicate(node, w, tid, ws);
    };
  }
  bool parked_this_seq = false;
  for (;;) {
    // Consume a pending cross-thread latency reset at the top of every
    // iteration — including parked/standby ones — so a ResetStats issued
    // during a fence is not left pending into the measured window.
    w.stats.MaybeResetLatency();

    uint64_t word = node.phase_word.load(std::memory_order_acquire);
    Phase phase = PhaseOf(word);
    uint64_t seq = SeqOf(word);
    if (seq != w.seen_seq) {
      w.seen_seq = seq;
      parked_this_seq = false;
    }

    if (phase == Phase::kFence || phase == Phase::kStopped) {
      w.parked_flag.store(true, std::memory_order_release);
      if (!parked_this_seq) {
        // Flush outbound replication and publish the log lane's watermark,
        // then park.  MarkEpoch hands the buffered batch to the logger
        // threads without blocking on storage; the logger's on-disk epoch
        // marker is what certifies "all my writes up to this epoch are
        // durable" (Section 4.5.1).
        w.stream->FlushAll();
        if (w.wal != nullptr) {
          w.wal->MarkEpoch(node.epoch.load(std::memory_order_acquire));
        }
        parked_this_seq = true;
        node.parked.fetch_add(1, std::memory_order_acq_rel);
      }
      if (phase == Phase::kStopped &&
          !running_.load(std::memory_order_acquire)) {
        w.tracker.DrainAll(NowNanos(), w.stats.latency);
        return;
      }
      // Parked: sleep rather than spin — on an oversubscribed host the
      // active workers need the cores (2-core substitution note, DESIGN.md).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }

    w.parked_flag.store(false, std::memory_order_relaxed);

    // Release transactions whose epoch has closed (group commit).  With
    // commit_wait=durable, additionally hold them until the cluster durable
    // epoch covers them: Drain releases epochs strictly below its argument,
    // so E_d durable means epochs <= E_d — i.e. < E_d + 1 — may go.
    // External requests that asked for wait_durable individually are gated
    // on the durable release even when the engine-wide wait is kNone.
    uint64_t epoch_now = node.epoch.load(std::memory_order_acquire);
    uint64_t durable_release = std::min(
        epoch_now, node.durable_cluster.load(std::memory_order_acquire) + 1);
    uint64_t release = options_.commit_wait == CommitWait::kDurable
                           ? durable_release
                           : epoch_now;
    w.tracker.Drain(release, durable_release, NowNanos(), w.stats.latency);

    if (phase == Phase::kPartitioned) {
      if (w.partitions.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      // External requests first (a client is waiting on them); the scan
      // starts at the round-robin cursor so multi-partition workers drain
      // their queues fairly.
      ExternalTxn* ext = nullptr;
      for (size_t k = 0; k < w.partitions.size() && ext == nullptr; ++k) {
        int p = w.partitions[(w.rr + k) % w.partitions.size()];
        ext = external_part_q_[static_cast<size_t>(p)]->Pop();
      }
      if (ext != nullptr) {
        ++w.rr;
        RunExternalPartitioned(node, w, ctx, ext);
      } else if (options_.synthetic_load) {
        int partition = w.partitions[w.rr++ % w.partitions.size()];
        RunPartitionedTxn(node, w, ctx, partition);
      } else {
        // Open-loop serving with an empty queue: idle, don't burn the core.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
    } else {  // kSingleMaster
      if (node.id != master_node_.load(std::memory_order_relaxed)) {
        // Standby: io threads apply the master's replication stream.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      // Cross-partition queue first (only this phase can serve it), then
      // stranded single-partition requests — OCC executes those fine, and
      // leaving them queued for a whole tau_s would double their latency.
      ExternalTxn* ext = external_cross_q_->Pop();
      for (int p = 0; p < num_partitions_ && ext == nullptr; ++p) {
        ext = external_part_q_[static_cast<size_t>(p)]->Pop();
      }
      if (ext != nullptr) {
        RunExternalSingleMaster(node, w, ctx, sync_hook, ext);
      } else if (options_.synthetic_load) {
        RunSingleMasterTxn(node, w, ctx, sync_hook);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
    }
    // On hosts with fewer cores than workers, rotate the run queue often so
    // every worker observes fence flags quickly (keeps the stop round — and
    // thus the fence — short).
    if (options_.yield_every_n_txns != 0 &&
        ++w.txn_since_yield >= options_.yield_every_n_txns) {
      w.txn_since_yield = 0;
      std::this_thread::yield();
    }
  }
}

void StarEngine::ReaderLoop(Node& node, int reader_index) {
  ReaderState& r = *node.readers[reader_index];
  SnapshotContext ctx(node.db.get(), node.watermark.get(),
                      options_.replica_read_mode, &r.rng,
                      /*worker_id=*/num_nodes_ * options_.cluster.workers_per_node +
                          node.id * static_cast<int>(node.readers.size()) +
                          reader_index);
  std::vector<int> parts = placement_.StoredPartitions(node.id);
  // Bounded local retry budget per request: a conflicted attempt re-pins a
  // fresh watermark and re-runs; replay rarely races the same footprint
  // twice, so a handful of attempts all failing means the node is reverting
  // or resetting — drop the request rather than spin against the pause.
  constexpr int kMaxAttempts = 8;
  size_t rr = static_cast<size_t>(r.rng.Uniform(
      static_cast<uint64_t>(parts.size())));
  while (running_.load(std::memory_order_acquire)) {
    // Readers never park at fences — executing straight through phase
    // switches is the zero-coordination point — but they do quiesce for
    // the pause handshake (epoch revert / storage reset), while this node
    // is not fully healthy in the applied view, and when fenced off.
    if (node.readers_pause.load(std::memory_order_acquire) ||
        !node.serving.load(std::memory_order_acquire) ||
        node.fenced.load(std::memory_order_acquire)) {
      r.parked.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    r.parked.store(false, std::memory_order_relaxed);

    // External read-only requests first: a client is waiting, and in
    // open-loop serving mode (synthetic_load off) they are the only work.
    ExternalTxn* ext = external_read_q_[static_cast<size_t>(node.id)]->Pop();
    if (ext != nullptr) {
      RunExternalRead(node, r, ctx, ext);
      continue;
    }
    if (!options_.synthetic_load) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }

    int partition = parts[rr++ % parts.size()];
    TxnRequest req = workload_.MakeReadOnly(r.rng, partition, num_partitions_);
    if (req.proc == nullptr) break;  // workload has no read-only class
    bool done = false;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      ctx.Begin();
      TxnStatus status = req.proc(ctx);
      if (status == TxnStatus::kCommitted && ctx.Commit()) {
        r.committed.fetch_add(1, std::memory_order_relaxed);
        r.keys.fetch_add(ctx.validated_keys(), std::memory_order_relaxed);
        // Staleness: how far the node's current epoch ran ahead of the
        // snapshot this read observed.  Monotonic mode has no pin, so its
        // staleness is unmeasured (each record is individually fresh).
        if (options_.replica_read_mode == ReplicaReadMode::kSnapshot) {
          uint64_t now_epoch = node.epoch.load(std::memory_order_acquire);
          uint64_t pin = ctx.pinned();
          if (now_epoch > pin) {
            r.lag_epochs.fetch_add(now_epoch - pin, std::memory_order_relaxed);
          }
        }
        done = true;
        break;
      }
      if (status != TxnStatus::kCommitted && !ctx.conflicted()) {
        // Genuine application outcome (missing record / user abort): the
        // same thing happens at every snapshot, so don't retry.
        r.aborted.fetch_add(1, std::memory_order_relaxed);
        done = true;
        break;
      }
      // Snapshot conflict: a read tripped on an epoch past the pin, a
      // bounded optimistic read gave up, or commit-time validation caught
      // replay moving a read record past the pin.  Re-pin and retry after
      // yielding once — the conflicting replay window outlasts an immediate
      // retry, especially when replay workers share this reader's core.
      r.conflicts.fetch_add(1, std::memory_order_relaxed);
      if (node.readers_pause.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
    if (!done) r.aborted.fetch_add(1, std::memory_order_relaxed);

    if (options_.yield_every_n_txns != 0 &&
        ++r.txn_since_yield >= options_.yield_every_n_txns) {
      r.txn_since_yield = 0;
      std::this_thread::yield();
    }
  }
  r.parked.store(true, std::memory_order_release);
}

void StarEngine::RunPartitionedTxn(Node& node, WorkerState& w,
                                   SiloContext& ctx, int partition) {
  TxnRequest req =
      workload_.MakeSinglePartition(w.rng, partition, num_partitions_);
  uint64_t start = NowNanos();
  ctx.Reset();
  TxnStatus status = req.proc(ctx);
  if (status == TxnStatus::kAbortUser) {
    w.stats.aborted_user.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (status != TxnStatus::kCommitted) {
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  CommitResult cr = SiloSerialCommit(ctx, w.gen, node.epoch);
  if (cr.status != TxnStatus::kCommitted) {
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool allow_ops = options_.replication == ReplicationMode::kHybrid;
  ReplicateCommit(w, cr.tid, ctx.write_set(), allow_ops, replica_targets_);
  LogCommitToWal(w, cr.tid, ctx.write_set());
  w.stats.committed.fetch_add(1, std::memory_order_relaxed);
  w.stats.single_partition.fetch_add(1, std::memory_order_relaxed);
  w.tracker.Add(Tid::Epoch(cr.tid), start);
}

void StarEngine::RunSingleMasterTxn(Node& node, WorkerState& w,
                                    SiloContext& ctx,
                                    const PreInstallHook& sync_hook) {
  int home = static_cast<int>(w.rng.Uniform(num_partitions_));
  TxnRequest req = workload_.MakeCrossPartition(w.rng, home, num_partitions_);
  uint64_t start = NowNanos();
  bool is_sync = options_.replication == ReplicationMode::kSyncValue;

  // Retry loop: conflicts restart the transaction until the phase ends.
  for (;;) {
    ctx.Reset();
    TxnStatus status = req.proc(ctx);
    if (status == TxnStatus::kAbortUser) {
      w.stats.aborted_user.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CommitResult cr;
    if (status != TxnStatus::kCommitted) {
      cr.status = TxnStatus::kAbortConflict;
    } else if (is_sync) {
      cr = SiloOccCommit(ctx, w.gen, node.epoch, sync_hook);
    } else {
      cr = SiloOccCommit(ctx, w.gen, node.epoch);
    }
    if (cr.status == TxnStatus::kCommitted) {
      if (!is_sync) {
        ReplicateCommit(w, cr.tid, ctx.write_set(), /*allow_ops=*/false,
                        sm_targets_);
      }
      LogCommitToWal(w, cr.tid, ctx.write_set());
      w.stats.committed.fetch_add(1, std::memory_order_relaxed);
      w.stats.cross_partition.fetch_add(1, std::memory_order_relaxed);
      w.tracker.Add(Tid::Epoch(cr.tid), start);
      return;
    }
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    // Stop retrying if the phase ended under us.
    uint64_t word = node.phase_word.load(std::memory_order_acquire);
    if (PhaseOf(word) != Phase::kSingleMaster) return;
  }
}

// ---------------------------------------------------------------------------
// External requests (serving front end, src/serve/)
// ---------------------------------------------------------------------------

void StarEngine::CompleteExternal(ExternalTxn* t, TxnStatus status,
                                  uint64_t epoch) {
  auto done = t->done;
  if (done != nullptr) {
    done(t, status, epoch);  // callee owns t from here
  } else {
    delete t;
  }
}

void StarEngine::ExternalReleased(void* ctx, bool committed, uint64_t epoch) {
  auto* t = static_cast<ExternalTxn*>(ctx);
  CompleteExternal(
      t, committed ? TxnStatus::kCommitted : TxnStatus::kAbortConflict, epoch);
}

bool StarEngine::SubmitExternal(ExternalTxn* t) {
  if (!external_accepting_.load(std::memory_order_acquire)) return false;
  if (t->submit_ns == 0) t->submit_ns = NowNanos();
  // Without durable logging there is no durable epoch to wait for; honour
  // the request by not wedging it behind a gate that never opens.
  if (!options_.durable_logging) t->wait_durable = false;
  if (t->req.read_only) {
    const std::vector<int>& route =
        read_route_[static_cast<size_t>(t->req.home_partition)];
    if (route.empty()) return false;  // no replica readers can serve this
    size_t i = read_rr_.fetch_add(1, std::memory_order_relaxed);
    for (size_t k = 0; k < route.size(); ++k) {
      int n = route[(i + k) % route.size()];
      if (!nodes_[static_cast<size_t>(n)]->serving.load(
              std::memory_order_acquire)) {
        continue;
      }
      if (external_read_q_[static_cast<size_t>(n)]->Push(
              t, options_.external_queue_cap)) {
        return true;
      }
    }
    return false;
  }
  if (t->req.cross_partition) {
    // Drained by the designated master's workers in the single-master
    // phase.  Serving assumes the server is colocated with a process that
    // hosts the master (single-process clusters always are).
    if (nodes_[static_cast<size_t>(
            master_node_.load(std::memory_order_relaxed))] == nullptr) {
      return false;
    }
    return external_cross_q_->Push(t, options_.external_queue_cap);
  }
  return external_part_q_[static_cast<size_t>(t->req.home_partition)]->Push(
      t, options_.external_queue_cap);
}

size_t StarEngine::ExternalDepth() const {
  size_t d = external_cross_q_->depth.load(std::memory_order_relaxed);
  for (const auto& q : external_part_q_) {
    d += q->depth.load(std::memory_order_relaxed);
  }
  for (const auto& q : external_read_q_) {
    if (q != nullptr) d += q->depth.load(std::memory_order_relaxed);
  }
  return d;
}

void StarEngine::FailExternalQueues() {
  auto fail_all = [](ExternalQueue* q) {
    if (q == nullptr) return;
    for (ExternalTxn* t = q->Pop(); t != nullptr; t = q->Pop()) {
      CompleteExternal(t, TxnStatus::kAbortNetwork, 0);
    }
  };
  for (const auto& q : external_part_q_) fail_all(q.get());
  fail_all(external_cross_q_.get());
  for (const auto& q : external_read_q_) fail_all(q.get());
}

void StarEngine::RunExternalPartitioned(Node& node, WorkerState& w,
                                        SiloContext& ctx, ExternalTxn* t) {
  uint64_t start = t->submit_ns;  // latency includes queue wait
  ctx.Reset();
  TxnStatus status = t->req.proc(ctx);
  if (status == TxnStatus::kAbortUser) {
    w.stats.aborted_user.fetch_add(1, std::memory_order_relaxed);
    CompleteExternal(t, status, 0);
    return;
  }
  if (status != TxnStatus::kCommitted) {
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    CompleteExternal(t, TxnStatus::kAbortConflict, 0);
    return;
  }
  CommitResult cr = SiloSerialCommit(ctx, w.gen, node.epoch);
  if (cr.status != TxnStatus::kCommitted) {
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    CompleteExternal(t, cr.status, 0);
    return;
  }
  bool allow_ops = options_.replication == ReplicationMode::kHybrid;
  ReplicateCommit(w, cr.tid, ctx.write_set(), allow_ops, replica_targets_);
  LogCommitToWal(w, cr.tid, ctx.write_set());
  w.stats.committed.fetch_add(1, std::memory_order_relaxed);
  w.stats.single_partition.fetch_add(1, std::memory_order_relaxed);
  w.tracker.Add(Tid::Epoch(cr.tid), start, &StarEngine::ExternalReleased, t,
                t->wait_durable);
}

bool StarEngine::RunExternalSingleMaster(Node& node, WorkerState& w,
                                         SiloContext& ctx,
                                         const PreInstallHook& sync_hook,
                                         ExternalTxn* t) {
  uint64_t start = t->submit_ns;
  bool is_sync = options_.replication == ReplicationMode::kSyncValue;
  for (;;) {
    ctx.Reset();
    TxnStatus status = t->req.proc(ctx);
    if (status == TxnStatus::kAbortUser) {
      w.stats.aborted_user.fetch_add(1, std::memory_order_relaxed);
      CompleteExternal(t, status, 0);
      return true;
    }
    CommitResult cr;
    if (status != TxnStatus::kCommitted) {
      cr.status = TxnStatus::kAbortConflict;
    } else if (is_sync) {
      cr = SiloOccCommit(ctx, w.gen, node.epoch, sync_hook);
    } else {
      cr = SiloOccCommit(ctx, w.gen, node.epoch);
    }
    if (cr.status == TxnStatus::kCommitted) {
      if (!is_sync) {
        ReplicateCommit(w, cr.tid, ctx.write_set(), /*allow_ops=*/false,
                        sm_targets_);
      }
      LogCommitToWal(w, cr.tid, ctx.write_set());
      w.stats.committed.fetch_add(1, std::memory_order_relaxed);
      if (t->req.cross_partition) {
        w.stats.cross_partition.fetch_add(1, std::memory_order_relaxed);
      } else {
        w.stats.single_partition.fetch_add(1, std::memory_order_relaxed);
      }
      w.tracker.Add(Tid::Epoch(cr.tid), start, &StarEngine::ExternalReleased,
                    t, t->wait_durable);
      return true;
    }
    w.stats.aborted.fetch_add(1, std::memory_order_relaxed);
    uint64_t word = node.phase_word.load(std::memory_order_acquire);
    if (PhaseOf(word) != Phase::kSingleMaster) {
      // The phase ended mid-retry: requeue for the next owner instead of
      // holding the stop round hostage.  A full queue fails the request —
      // the client retries against fresh admission control.
      ExternalQueue& q =
          t->req.cross_partition
              ? *external_cross_q_
              : *external_part_q_[static_cast<size_t>(t->req.home_partition)];
      if (!q.Push(t, options_.external_queue_cap)) {
        CompleteExternal(t, TxnStatus::kAbortConflict, 0);
      }
      return false;
    }
  }
}

void StarEngine::RunExternalRead(Node& node, ReaderState& r,
                                 SnapshotContext& ctx, ExternalTxn* t) {
  constexpr int kMaxAttempts = 8;
  // Read-your-writes floor: a watermark below the session's last commit
  // epoch fails Begin; the fence normally publishes that epoch within one
  // iteration, so wait for it (bounded) instead of failing the request.
  uint64_t floor_deadline =
      NowNanos() +
      MillisToNanos(4.0 * options_.iteration_ms + options_.min_phase_ms);
  TxnStatus final_status = TxnStatus::kAbortConflict;
  uint64_t pinned = 0;
  for (int attempt = 0; attempt < kMaxAttempts;) {
    if (node.readers_pause.load(std::memory_order_acquire) ||
        !node.serving.load(std::memory_order_acquire) ||
        !running_.load(std::memory_order_acquire)) {
      break;
    }
    if (!ctx.Begin(t->min_epoch)) {
      if (NowNanos() > floor_deadline) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;  // floor waits don't consume conflict attempts
    }
    TxnStatus status = t->req.proc(ctx);
    if (status == TxnStatus::kCommitted && ctx.Commit()) {
      r.keys.fetch_add(ctx.validated_keys(), std::memory_order_relaxed);
      final_status = TxnStatus::kCommitted;
      pinned = ctx.pinned();
      break;
    }
    if (status != TxnStatus::kCommitted && !ctx.conflicted()) {
      final_status = status;  // genuine user outcome, same at any snapshot
      break;
    }
    r.conflicts.fetch_add(1, std::memory_order_relaxed);
    ++attempt;
    std::this_thread::yield();
  }
  if (final_status == TxnStatus::kCommitted) {
    r.committed.fetch_add(1, std::memory_order_relaxed);
  } else {
    r.aborted.fetch_add(1, std::memory_order_relaxed);
  }
  CompleteExternal(t, final_status, pinned);
}

void StarEngine::ReplicateCommit(WorkerState& w, uint64_t tid,
                                 const WriteSet& writes, bool allow_ops,
                                 const std::vector<std::vector<int>>& targets) {
  for (const auto& entry : writes.entries()) {
    for (int dst : targets[entry.partition]) {
      w.stream->AppendEntry(dst, tid, writes, entry, allow_ops);
    }
  }
}

bool StarEngine::SyncReplicate(Node& node, WorkerState& w, uint64_t tid,
                               WriteSet& writes) {
  // Build one batch per replica target and wait for every ack while the
  // commit holds its write locks (Figure 9's SYNC column).  The batch
  // buffers live in the worker state so a warmed-up sync commit, like the
  // async one, never touches the allocator.
  if (w.sync_batches.size() != static_cast<size_t>(num_nodes_)) {
    w.sync_batches.resize(num_nodes_);
    w.sync_counts.assign(num_nodes_, 0);
  }
  auto& batches = w.sync_batches;
  auto& counts = w.sync_counts;
  for (const auto& entry : writes.entries()) {
    for (int dst : sm_targets_[entry.partition]) {
      if (entry.is_delete) {
        SerializeDeleteEntry(batches[dst], entry.table, entry.partition,
                             entry.key, tid);
      } else {
        SerializeValueEntry(batches[dst], entry.table, entry.partition,
                            entry.key, tid, writes.ValueView(entry));
      }
      ++counts[dst];
    }
  }
  auto& tokens = w.sync_tokens;
  tokens.clear();
  for (int dst = 0; dst < num_nodes_; ++dst) {
    if (batches[dst].empty()) {
      counts[dst] = 0;
      continue;
    }
    // Counted before the call on purpose: an ack timeout does not mean the
    // replica skipped the batch (it may apply late), so skipping AddSent
    // here could leave applied > sent and let a fence drain round exit
    // early.  Over-counting toward a genuinely dead node is benign — failed
    // nodes are excluded from fences and counters reset on view changes.
    // (The one-way stream path in ReplicationStream::Flush does get exact
    // drop information from the transport and counts only accepted batches.)
    node.counters->AddSent(dst, counts[dst], w.stream->lane());
    counts[dst] = 0;
    tokens.emplace_back(
        dst, node.endpoint->CallAsync(dst, net::MsgType::kReplicationBatch,
                                      batches[dst].Release()));
    batches[dst].Adopt(node.endpoint->AcquirePayload());
  }
  bool ok = true;
  for (auto& [dst, tok] : tokens) {
    (void)dst;
    if (!node.endpoint->Wait(tok, nullptr,
                             MillisToNanos(options_.fence_timeout_ms))) {
      ok = false;
    }
  }
  return ok;
}

void StarEngine::LogCommitToWal(WorkerState& w, uint64_t tid,
                                const WriteSet& writes) {
  if (w.wal == nullptr) return;
  w.wal->AppendCommit(tid, writes);
}

// ---------------------------------------------------------------------------
// Lifecycle / metrics
// ---------------------------------------------------------------------------

void StarEngine::InjectFailure(int node) {
  // Fail-stop: cut the node off the transport; the coordinator notices at
  // the next fence (Section 4.5.2's definition of a failed node).  The
  // crashed process stops executing: park its workers.  (In a multi-process
  // deployment the real equivalent is killing the node's process.)
  transport_->SetDown(node, true);
  if (nodes_[node] != nullptr) {
    Node& n = *nodes_[node];
    n.fenced.store(true, std::memory_order_release);
    uint64_t word = n.phase_word.load(std::memory_order_acquire);
    n.phase_word.store(PackPhase(Phase::kStopped, SeqOf(word) + 1),
                       std::memory_order_release);
  }
}

void StarEngine::RequestRejoin(int node) {
  // In-process re-admission of a previously failed node; uses a fixed
  // incarnation nonce (the store restarts via ResetStorage, so there is
  // only ever one in-process incarnation at a time).
  MutexLock g(rejoin_mu_);
  if (node_healthy_[node].load(std::memory_order_acquire)) return;
  for (auto& [r, n] : rejoin_requests_) {
    if (r == node) return;
  }
  rejoin_requests_.emplace_back(node, kInProcessNonce);
}

bool StarEngine::RequestRejoinFromCoordinator(double timeout_ms) {
  Node* n = nullptr;
  for (auto& node : nodes_) {
    if (node != nullptr) {
      n = node.get();
      break;
    }
  }
  if (n == nullptr) return false;
  // Incarnation nonce: lets the coordinator tell a retried request from
  // this process apart from a request by yet another restart.
  uint64_t nonce =
      (static_cast<uint64_t>(getpid()) << 32) ^ NowNanos() ^ 1;
  if (nonce == 0) nonce = 1;
  WriteBuffer b;
  b.Write<int32_t>(n->id);
  b.Write<uint64_t>(nonce);
  std::string payload = b.Release();
  double budget_ms =
      timeout_ms > 0 ? timeout_ms : options_.rejoin_timeout_ms;
  uint64_t deadline = NowNanos() + MillisToNanos(budget_ms);
  // Jittered exponential backoff between attempts: under a gray network the
  // fixed-period retry storm both congests the recovering link and
  // synchronises with other rejoiners; the jitter (x0.5..x1.5) breaks that.
  Rng rng(nonce);
  double backoff_ms = std::max(1.0, options_.rejoin_backoff_min_ms);
  while (running_.load(std::memory_order_acquire) && NowNanos() < deadline) {
    std::string resp;
    // The ack leg is dropped while this node is still marked down at the
    // coordinator; keep retrying until the re-admission view opens the
    // link and an ack arrives.
    if (n->endpoint->Call(num_nodes_, net::MsgType::kRejoinRequest, payload,
                          &resp, MillisToNanos(300))) {
      return true;
    }
    double sleep_ms = backoff_ms * (0.5 + rng.NextDouble());
    uint64_t now = NowNanos();
    if (now >= deadline) break;
    uint64_t remain_ns = deadline - now;
    uint64_t sleep_ns = std::min(MillisToNanos(sleep_ms), remain_ns);
    std::this_thread::sleep_for(std::chrono::nanoseconds(sleep_ns));
    backoff_ms = std::min(backoff_ms * 2, options_.rejoin_backoff_max_ms);
  }
  return false;
}

bool StarEngine::WaitForShutdown(double timeout_ms) {
  int want = 0;
  for (auto& node : nodes_) {
    if (node != nullptr) ++want;
  }
  uint64_t deadline = NowNanos() + MillisToNanos(timeout_ms);
  while (NowNanos() < deadline) {
    if (shutdown_seen_.load(std::memory_order_acquire) >= want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return shutdown_seen_.load(std::memory_order_acquire) >= want;
}

void StarEngine::CollectClusterSummary() {
  ClusterSummary s;
  // checksum per partition, as first reported; replicas must match it.
  std::map<int, uint64_t> first_sum;
  bool converged = true;
  for (int i : HealthyNodes()) {
    std::string resp;
    if (!coordinator_->Call(i, net::MsgType::kShutdown, "", &resp,
                            MillisToNanos(options_.fence_timeout_ms))) {
      continue;
    }
    ReadBuffer in(resp);
    s.committed += in.Read<uint64_t>();
    s.cross_partition += in.Read<uint64_t>();
    uint32_t np = in.Read<uint32_t>();
    for (uint32_t k = 0; k < np; ++k) {
      int32_t p = in.Read<int32_t>();
      uint64_t sum = in.Read<uint64_t>();
      auto [it, inserted] = first_sum.emplace(p, sum);
      if (!inserted && it->second != sum) converged = false;
    }
    ++s.nodes_reporting;
  }
  s.converged = converged && s.nodes_reporting > 0;
  s.valid = true;
  summary_ = s;
}

void StarEngine::ResetStats() {
  bool live = running_.load(std::memory_order_acquire);
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    for (auto& w : node->workers) {
      // Also clears the latency histogram — without that, warm-up samples
      // pollute every measured window.  While running, the histogram reset
      // is deferred to the owning worker (the histogram is single-writer);
      // on a stopped engine the workers are joined, so reset it directly.
      w->stats.Reset();
      if (!live) w->stats.MaybeResetLatency();
    }
    for (auto& r : node->readers) {
      r->committed.store(0, std::memory_order_relaxed);
      r->aborted.store(0, std::memory_order_relaxed);
      r->conflicts.store(0, std::memory_order_relaxed);
      r->keys.store(0, std::memory_order_relaxed);
      r->lag_epochs.store(0, std::memory_order_relaxed);
    }
    node->replication_ignored.store(0, std::memory_order_relaxed);
  }
  fence_count_.store(0, std::memory_order_relaxed);
  fence_ns_.store(0, std::memory_order_relaxed);
  fence_stop_ns_.store(0, std::memory_order_relaxed);
  fence_drain_ns_.store(0, std::memory_order_relaxed);
  net_bytes_at_reset_ = transport_->total_bytes();
  net_msgs_at_reset_ = transport_->total_messages();
  net_dropped_bytes_at_reset_ = transport_->dropped_bytes();
  net_dropped_msgs_at_reset_ = transport_->dropped_messages();
  measure_start_ns_ = NowNanos();
}

Metrics StarEngine::Snapshot() const {
  Metrics m;
  for (const auto& node : nodes_) {
    if (node == nullptr) continue;
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
      m.replica_read_conflicts += r->conflicts.load(std::memory_order_relaxed);
      m.replica_read_keys += r->keys.load(std::memory_order_relaxed);
      m.replica_read_lag_epochs +=
          r->lag_epochs.load(std::memory_order_relaxed);
    }
    m.replication_ignored_batches +=
        node->replication_ignored.load(std::memory_order_relaxed);
    if (node->logs != nullptr) {
      m.wal_bytes += node->logs->bytes_written();
      m.wal_fsyncs += node->logs->fsyncs();
      m.wal_batches += node->logs->batches();
      m.wal_epoch_markers += node->logs->epoch_markers();
    }
    if (node->checkpointer != nullptr) {
      m.checkpoints += node->checkpointer->checkpoints_taken();
      m.checkpoint_entries += node->checkpointer->entries_written();
      m.checkpoint_bytes += node->checkpointer->bytes_written();
    }
    m.rejoin_fetch_bytes +=
        node->rejoin_bytes.load(std::memory_order_relaxed);
    m.rejoin_full_bytes +=
        node->rejoin_full_bytes.load(std::memory_order_relaxed);
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

Metrics StarEngine::Stop() {
  Metrics before = Snapshot();
  double seconds = before.seconds;

  // Refuse new external requests before any thread winds down; requests
  // already queued are failed below once their executors have exited.
  external_accepting_.store(false, std::memory_order_release);
  running_.store(false, std::memory_order_release);
  if (coordinator_thread_.joinable()) coordinator_thread_.join();

  if (options_.multiprocess && coordinator_here_) {
    // The coordinator loop's exit broadcast parked every node in kStopped
    // (streams flushed).  Run one more stop+drain round so every accepted
    // replication batch is applied cluster-wide, then collect the final
    // stats + checksums; node processes exit once they have served it.
    Fence(Phase::kStopped, 0.0);
    CollectClusterSummary();
  }

  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    // The coordinator only messages healthy nodes; make sure every worker
    // (including those on failed nodes) observes the stop.
    uint64_t word = node->phase_word.load(std::memory_order_acquire);
    if (PhaseOf(word) != Phase::kStopped) {
      node->phase_word.store(PackPhase(Phase::kStopped, SeqOf(word) + 1),
                             std::memory_order_release);
    }
    for (auto& t : node->worker_threads) {
      if (t.joinable()) t.join();
    }
    for (auto& t : node->reader_threads) {
      if (t.joinable()) t.join();
    }
    node->control_running.store(false, std::memory_order_release);
    {
      // Pair the notify with the mailbox lock so a control thread between
      // its empty-check and its wait cannot miss the shutdown signal.
      MutexLock g(node->mail_mu);
    }
    node->mail_cv.NotifyAll();
    if (node->control_thread.joinable()) node->control_thread.join();
    if (node->checkpointer) node->checkpointer->Stop();
  }
  // Workers and readers are gone; anything still queued can never execute.
  FailExternalQueues();
  // Drain in-flight replication so all replicas converge before the io
  // threads stop (workers flushed their streams when they parked).
  uint64_t drain_deadline = NowNanos() + MillisToNanos(500);
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    if (!node_healthy_[node->id].load(std::memory_order_acquire)) continue;
    while (transport_->HasTraffic(node->id) && NowNanos() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    node->endpoint->Stop();
    // After the io threads stop, no new segments can arrive; Stop drains
    // the shard queues (every accepted batch reaches the store — the
    // convergence checks depend on it) and joins the replay workers.
    if (node->sharded != nullptr) node->sharded->Stop();
    // Drain every lane into the loggers, fsync, emit final epoch markers,
    // and join the logger threads.
    if (node->logs != nullptr) node->logs->Stop();
  }
  if (coordinator_ != nullptr) coordinator_->Stop();
  transport_->Stop();
  state_.store(SystemState::kStopped, std::memory_order_release);

  Metrics m = Snapshot();
  m.seconds = seconds;  // measure window ends at Stop() entry
  return m;
}

}  // namespace star
