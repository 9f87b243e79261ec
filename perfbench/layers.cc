#include "layers.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "cc/silo.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/tid.h"
#include "net/endpoint.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "replication/applier.h"
#include "replication/stream.h"
#include "storage/checksum.h"
#include "storage/database.h"
#include "wal/logger.h"
#include "wal/wal.h"

namespace perfbench {

using star::NowNanos;

namespace {

std::unique_ptr<star::Database> PopulateAll(const star::Workload& w,
                                            int partitions) {
  std::vector<int> parts;
  for (int p = 0; p < partitions; ++p) parts.push_back(p);
  auto db = std::make_unique<star::Database>(w.Schemas(), partitions, parts,
                                             /*two_version=*/false);
  for (int p = 0; p < partitions; ++p) w.PopulatePartition(*db, p);
  return db;
}

void Put(MetricMap* out, const std::string& name, double value,
         const char* unit, uint64_t samples) {
  (*out)[name] = Metric{value, unit, samples, {}};
}

/// Replication batches as a worker would ship them: captured off an ideal
/// in-process fabric, each payload copied out and its buffer recycled the
/// way a replica io loop recycles it.
struct EncodedBatches {
  std::vector<std::string> payloads;
  uint64_t bytes = 0;
};

/// A window of `payloads` over a two-endpoint TCP loopback transport:
/// throughput with up to 32 batches in flight, then one batch at a time for
/// the per-batch latency.
void NetDriver(const EncodedBatches& enc, Tracer* tracer, MetricMap* out) {
  star::net::TransportConfig c;
  c.kind = star::net::TransportKind::kTcp;
  c.tcp.base_port = 0;
  auto t = star::net::MakeTransport(2, c);
  if (!t->Start() || enc.payloads.empty()) {
    Put(out, "net.mb_per_s", 0, "MB/s", 0);
    Put(out, "net.msgs_per_s", 0, "1/s", 0);
    Put(out, "net.batch_us", 0, "us", 0);
    return;
  }
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> last_recv_ns{0};
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    star::net::Message m;
    while (!stop.load(std::memory_order_acquire)) {
      if (!t->Poll(1, &m)) {
        std::this_thread::yield();
        continue;
      }
      last_recv_ns.store(NowNanos(), std::memory_order_relaxed);
      received.fetch_add(1, std::memory_order_release);
      t->payload_pool().Release(0, std::move(m.payload));
    }
  });
  size_t next = 0;
  auto send_one = [&] {
    const std::string& src = enc.payloads[next++ % enc.payloads.size()];
    std::string payload = t->payload_pool().Acquire(0);
    payload.assign(src);
    star::net::Message m;
    m.src = 0;
    m.dst = 1;
    m.type = star::net::MsgType::kReplicationBatch;
    m.payload = std::move(payload);
    while (!t->Send(std::move(m))) std::this_thread::yield();
  };

  // Throughput window.
  constexpr uint64_t kWindow = 32;
  uint64_t sent = 0;
  uint64_t bytes = 0;
  uint64_t t0 = NowNanos();
  uint64_t deadline = t0 + 500'000'000ull;
  while (NowNanos() < deadline) {
    while (sent - received.load(std::memory_order_acquire) >= kWindow) {
      std::this_thread::yield();
    }
    bytes += enc.payloads[next % enc.payloads.size()].size();
    send_one();
    ++sent;
  }
  while (received.load(std::memory_order_acquire) < sent) {
    std::this_thread::yield();
  }
  uint64_t t1 = NowNanos();
  double secs = static_cast<double>(t1 - t0) / 1e9;
  tracer->Record("layer.net.stream", t0, t1);
  Put(out, "net.mb_per_s", static_cast<double>(bytes) / secs / (1 << 20),
      "MB/s", sent);
  Put(out, "net.msgs_per_s", static_cast<double>(sent) / secs, "1/s", sent);

  // One batch at a time: send -> delivered to the receiving endpoint.
  Samples one;
  for (int i = 0; i < 300; ++i) {
    uint64_t before = received.load(std::memory_order_acquire);
    uint64_t s = NowNanos();
    send_one();
    while (received.load(std::memory_order_acquire) == before) {
      std::this_thread::yield();
    }
    uint64_t e = last_recv_ns.load(std::memory_order_relaxed);
    one.Add(e > s ? e - s : 0);
    tracer->Record("layer.net.batch", s, e);
  }
  Put(out, "net.batch_us", one.QuantileMs(0.5) * 1e3, "us", one.size());
  stop.store(true, std::memory_order_release);
  consumer.join();
  t->Stop();
}

}  // namespace

bool RunLayerDrivers(const LayerInputs& in, Tracer* tracer, MetricMap* out,
                     std::string* detail) {
  const star::Workload& w = *in.workload;

  // Inputs: the workload's own transactions, cross-partition with
  // probability cross_share (the workloads' write mix).
  star::Rng gen_rng(in.seed * 0x2545F4914F6CDD1Dull + 5);
  std::vector<star::TxnRequest> reqs;
  std::vector<bool> cross;
  reqs.reserve(static_cast<size_t>(in.txns));
  for (int i = 0; i < in.txns; ++i) {
    int home = static_cast<int>(gen_rng.Uniform(in.partitions));
    bool c = gen_rng.Flip(in.cross_share);
    reqs.push_back(c ? w.MakeCrossPartition(gen_rng, home, in.partitions)
                     : w.MakeSinglePartition(gen_rng, home, in.partitions));
    cross.push_back(c);
  }

  // --- storage ---
  double heap0 = HeapMb();
  uint64_t t0 = NowNanos();
  std::unique_ptr<star::Database> db = PopulateAll(w, in.partitions);
  uint64_t t1 = NowNanos();
  tracer->Record("layer.storage.populate", t0, t1);
  Put(out, "storage.populate_s", static_cast<double>(t1 - t0) / 1e9, "s", 1);
  Put(out, "storage.rss_mb", HeapMb() - heap0, "MB", 1);

  std::vector<star::AccessDesc> keys;
  for (const auto& r : reqs) {
    keys.insert(keys.end(), r.accesses.begin(), r.accesses.end());
  }
  std::vector<double> get_ns;
  uintptr_t sink = 0;
  for (int pass = 0; pass < 3 && !keys.empty(); ++pass) {
    uint64_t s = NowNanos();
    for (const auto& a : keys) {
      star::HashTable* ht = db->table(a.table, a.partition);
      if (ht != nullptr) sink ^= reinterpret_cast<uintptr_t>(ht->Get(a.key));
    }
    uint64_t e = NowNanos();
    tracer->Record("layer.storage.get", s, e);
    get_ns.push_back(static_cast<double>(e - s) /
                     static_cast<double>(keys.size()));
  }
  asm volatile("" : : "g"(sink) : "memory");
  Put(out, "storage.get_ns", Median(get_ns), "ns", keys.size() * 3);

  // --- wal: logger pool + base checkpoint of the populated copy ---
  std::filesystem::remove_all(in.scratch_dir);
  std::filesystem::create_directories(in.scratch_dir);
  star::wal::LoggerPoolOptions lo;
  lo.dir = in.scratch_dir;
  lo.fsync = true;
  auto pool = std::make_unique<star::wal::LoggerPool>(lo);
  pool->MarkComplete();
  star::wal::LogLane* lane = pool->lane(0);
  std::atomic<uint64_t> stable{1};  // covers the load epoch (0)
  star::wal::Checkpointer ckpt(db.get(), in.scratch_dir, 0, &stable);
  {
    uint64_t s = NowNanos();
    ckpt.RunOnce();
    uint64_t e = NowNanos();
    tracer->Record("layer.wal.checkpoint_base", s, e);
    Put(out, "wal.checkpoint_ms", static_cast<double>(e - s) / 1e6, "ms", 1);
    Put(out, "wal.checkpoint_mb_per_s",
        static_cast<double>(ckpt.bytes_written()) / (1 << 20) /
            (static_cast<double>(e - s) / 1e9),
        "MB/s", 1);
  }

  // --- cc + replication encode + wal append ---
  star::net::SimNetOptions ideal;
  ideal.link_latency_us = 0;
  ideal.local_latency_us = 0;
  ideal.bandwidth_gbps = 0;
  star::net::SimTransport fabric(2, ideal);
  star::net::Endpoint ep(&fabric, 0);  // never started: drained inline
  star::ReplicationCounters counters(2);
  star::ReplicationStream stream(&ep, &counters, 2, in.rep_flush_bytes);
  EncodedBatches enc;
  auto drain = [&] {
    star::net::Message m;
    while (fabric.Poll(1, &m)) {
      enc.bytes += m.payload.size();
      enc.payloads.push_back(m.payload);
      fabric.payload_pool().Release(1, std::move(m.payload));
    }
  };

  // Epochs advance every kTxnsPerEpoch transactions, each closed by an
  // epoch marker on the log lane (as a fence would).
  constexpr uint64_t kTxnsPerEpoch = 500;
  star::Rng exec_rng(in.seed + 17);
  star::SiloContext ctx(db.get(), &exec_rng, 0);
  star::TidGenerator tids(0);
  std::atomic<uint64_t> epoch{2};
  uint64_t exec_ns[2] = {0, 0};
  uint64_t executed[2] = {0, 0};
  uint64_t encode_ns = 0;
  uint64_t append_ns = 0;
  uint64_t committed = 0;
  uint64_t cc_start = NowNanos();
  for (size_t i = 0; i < reqs.size(); ++i) {
    int k = cross[i] ? 1 : 0;
    uint64_t s = NowNanos();
    ctx.Reset();
    star::TxnStatus st = reqs[i].proc(ctx);
    star::CommitResult cr;
    cr.status = st;
    if (st == star::TxnStatus::kCommitted) {
      cr = cross[i] ? star::SiloOccCommit(ctx, tids, epoch)
                    : star::SiloSerialCommit(ctx, tids, epoch);
    }
    uint64_t e = NowNanos();
    exec_ns[k] += e - s;
    ++executed[k];
    if (cr.status != star::TxnStatus::kCommitted) continue;
    ++committed;
    stream.Append(1, cr.tid, ctx.write_set(), /*allow_operations=*/false);
    uint64_t e2 = NowNanos();
    lane->AppendCommit(cr.tid, ctx.write_set());
    uint64_t e3 = NowNanos();
    encode_ns += e2 - e;
    append_ns += e3 - e2;
    drain();
    if (committed % kTxnsPerEpoch == 0) {
      lane->MarkEpoch(epoch.load());
      epoch.fetch_add(1);
    }
  }
  stream.FlushAll();
  drain();
  uint64_t last_epoch = epoch.load();
  lane->MarkEpoch(last_epoch);
  pool->Drain();
  tracer->Record("layer.cc.execute_encode_log", cc_start, NowNanos());
  Put(out, "cc.txn_us_single",
      executed[0] ? static_cast<double>(exec_ns[0]) / executed[0] / 1e3 : 0,
      "us", executed[0]);
  Put(out, "cc.txn_us_cross",
      executed[1] ? static_cast<double>(exec_ns[1]) / executed[1] / 1e3 : 0,
      "us", executed[1]);
  Put(out, "replication.encode_ns_per_txn",
      committed ? static_cast<double>(encode_ns) / committed : 0, "ns",
      committed);
  Put(out, "replication.bytes_per_commit",
      committed ? static_cast<double>(enc.bytes) / committed : 0, "B",
      committed);
  Put(out, "replication.msgs_per_commit",
      committed ? static_cast<double>(enc.payloads.size()) / committed : 0,
      "msg/txn", committed);
  uint64_t epochs = last_epoch - 1;
  Put(out, "wal.append_ns_per_txn",
      committed ? static_cast<double>(append_ns) / committed : 0, "ns",
      committed);
  Put(out, "wal.bytes_per_commit",
      committed ? static_cast<double>(pool->bytes_written()) / committed : 0,
      "B", committed);
  Put(out, "wal.fsyncs_per_epoch",
      static_cast<double>(pool->fsyncs()) / static_cast<double>(epochs),
      "fsync/epoch", epochs);

  // --- wal: delta checkpoint covering the executed transactions ---
  {
    stable.store(last_epoch);
    uint64_t s = NowNanos();
    ckpt.RunOnce();
    uint64_t e = NowNanos();
    tracer->Record("layer.wal.checkpoint_delta", s, e);
    Put(out, "wal.checkpoint_delta_ms", static_cast<double>(e - s) / 1e6, "ms",
        1);
  }
  pool->Stop();
  pool.reset();

  // --- wal: recover a fresh copy from the chain + log, compare ---
  bool recovered = true;
  {
    std::unique_ptr<star::Database> fresh = PopulateAll(w, in.partitions);
    uint64_t s = NowNanos();
    star::wal::RecoveryResult rr =
        star::wal::Recover(fresh.get(), in.scratch_dir, 0);
    uint64_t e = NowNanos();
    tracer->Record("layer.wal.recover", s, e);
    Put(out, "wal.recovery_s", static_cast<double>(e - s) / 1e9, "s", 1);
    *detail = "epoch=" + std::to_string(rr.committed_epoch);
    for (int p = 0; p < in.partitions; ++p) {
      bool same = star::DatabasePartitionChecksum(*fresh, p) ==
                  star::DatabasePartitionChecksum(*db, p);
      recovered &= same;
      *detail += " p" + std::to_string(p) + (same ? "=same" : "=DIFFERS");
    }
  }
  std::filesystem::remove_all(in.scratch_dir);
  db.reset();

  // --- replication apply onto a second, identically populated copy ---
  std::unique_ptr<star::Database> replica = PopulateAll(w, in.partitions);
  star::ReplicationCounters apply_counters(2);
  star::ReplicationApplier applier(replica.get(), &apply_counters);
  uint64_t entries = 0;
  uint64_t s = NowNanos();
  for (const std::string& p : enc.payloads) entries += applier.ApplyBatch(0, p);
  uint64_t e = NowNanos();
  tracer->Record("layer.replication.apply", s, e);
  Put(out, "replication.apply_ns_per_entry",
      entries ? static_cast<double>(e - s) / entries : 0, "ns", entries);
  replica.reset();

  // --- net ---
  NetDriver(enc, tracer, out);
  return recovered;
}

}  // namespace perfbench
