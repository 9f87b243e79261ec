// Micro-benchmarks of the substrate and of the transaction hot path.
//
// Unlike the figure benches, this binary instruments the *allocator*: a
// counting operator-new hook reports amortized heap allocations per
// committed transaction alongside txns/sec, so "the commit path does not
// touch the allocator in steady state" is a measured property, not an
// asserted one.  Results are mirrored to BENCH_micro_substrate.json.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cc/operation.h"
#include "cc/silo.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/serializer.h"
#include "net/endpoint.h"
#include "net/fabric.h"
#include "replication/applier.h"
#include "replication/log_entry.h"
#include "replication/stream.h"
#include "storage/database.h"
#include "storage/hash_table.h"

// ---------------------------------------------------------------------------
// Counting allocator hook
// ---------------------------------------------------------------------------

static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace star {
namespace {

using bench::JsonLog;

constexpr uint32_t kValueSize = 100;
constexpr uint64_t kRows = 50'000;

std::unique_ptr<Database> MakeDb() {
  std::vector<TableSchema> schemas{{"t", kValueSize, kRows}};
  auto db = std::make_unique<Database>(schemas, 1, std::vector<int>{0}, false);
  char v[kValueSize] = {};
  for (uint64_t k = 0; k < kRows; ++k) db->Load(0, 0, k, v);
  return db;
}

/// An ideal wire: the hot-path benches measure the send/apply code, not the
/// simulated link.
net::SimNetOptions IdealNet() {
  net::SimNetOptions o;
  o.link_latency_us = 0;
  o.local_latency_us = 0;
  o.bandwidth_gbps = 0;  // unlimited
  return o;
}

struct HotPathResult {
  double tps = 0;
  double allocs_per_txn = 0;
};

void Report(const char* name, const HotPathResult& r) {
  std::printf("%-28s %12.0f txns/sec  %8.4f allocs/txn\n", name, r.tps,
              r.allocs_per_txn);
  JsonLog::Instance().Row({{"bench", name},
                           {"tps", JsonLog::Format(r.tps)},
                           {"allocs_per_txn", JsonLog::Format(r.allocs_per_txn)}});
}

/// One synthetic transaction: 4 reads, 3 value writes, 1 field operation.
/// Write-heavy on purpose — this is the shape that stresses write-set and
/// replication-buffer memory management.
template <typename Rng>
void RunProc(SiloContext& ctx, Rng& rng) {
  char buf[kValueSize];
  for (int r = 0; r < 4; ++r) {
    (void)ctx.Read(0, 0, rng.Uniform(kRows), buf);
  }
  for (int w = 0; w < 3; ++w) {
    uint64_t key = rng.Uniform(kRows);
    std::memset(buf, static_cast<int>(key & 0xff), sizeof(buf));
    ctx.Write(0, 0, key, buf);
  }
  ctx.ApplyOperation(0, 0, rng.Uniform(kRows), Operation::AddI64(0, 1));
}

/// Shared harness for the two hot-path benches: run `txns` transactions
/// through `commit` (which commits the context and returns the TID, or 0 on
/// abort), replicating to a drained replica, and measure txns/sec plus
/// allocations per transaction in steady state.
template <typename Commit>
HotPathResult MeasureHotPath(uint64_t txns, bool allow_operations,
                             uint64_t seed, Commit&& commit) {
  auto db = MakeDb();
  auto replica = MakeDb();
  net::SimTransport fabric(2, IdealNet());
  net::Endpoint ep(&fabric, 0);  // never Start()ed: we drain inline
  ReplicationCounters counters(2);
  ReplicationStream stream(&ep, &counters, 2);
  ReplicationApplier applier(replica.get(), &counters);
  Rng rng(seed);
  TidGenerator gen(0);
  std::atomic<uint64_t> epoch{1};
  SiloContext ctx(db.get(), &rng, 0);

  net::Message m;
  auto drain = [&] {
    // Inline stand-in for the replica's io loop: apply, then return the
    // payload buffer to the pool (exactly what Endpoint::IoLoop does).
    while (fabric.Poll(1, &m)) {
      applier.ApplyBatch(m.src, m.payload);
      fabric.payload_pool().Release(1, std::move(m.payload));
    }
  };
  auto one = [&] {
    ctx.Reset();
    RunProc(ctx, rng);
    uint64_t tid = commit(ctx, gen, epoch);
    if (tid == 0) return;
    stream.Append(1, tid, ctx.write_set(), allow_operations);
  };

  for (uint64_t i = 0; i < txns / 8; ++i) one();  // warm up capacities
  stream.FlushAll();
  drain();

  uint64_t allocs0 = g_allocations.load();
  uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < txns; ++i) {
    one();
    if ((i & 255) == 255) drain();
  }
  stream.FlushAll();
  drain();
  uint64_t dt = NowNanos() - t0;
  uint64_t allocs = g_allocations.load() - allocs0;

  HotPathResult r;
  r.tps = static_cast<double>(txns) / (static_cast<double>(dt) / 1e9);
  r.allocs_per_txn = static_cast<double>(allocs) / static_cast<double>(txns);
  return r;
}

/// Partitioned-phase hot path (Section 4.1): serial commit, asynchronous
/// operation-mode replication into a batched stream, applied on a replica.
HotPathResult BenchPartitionedPhase(uint64_t txns) {
  return MeasureHotPath(
      txns, /*allow_operations=*/true, /*seed=*/7,
      [](SiloContext& ctx, TidGenerator& gen, std::atomic<uint64_t>& epoch) {
        return SiloSerialCommit(ctx, gen, epoch).tid;
      });
}

/// Single-master-phase hot path (Section 4.2): full Silo OCC commit with
/// value-mode replication (the mode used when many threads share a
/// partition).
HotPathResult BenchSingleMasterPhase(uint64_t txns) {
  return MeasureHotPath(
      txns, /*allow_operations=*/false, /*seed=*/11,
      [](SiloContext& ctx, TidGenerator& gen, std::atomic<uint64_t>& epoch) {
        CommitResult cr = SiloOccCommit(ctx, gen, epoch);
        return cr.status == TxnStatus::kCommitted ? cr.tid : uint64_t{0};
      });
}

/// Synchronous-replication hot path (Figure 9's SYNC column): the commit
/// serialises one batch per replica inside the pre-install hook, while the
/// write locks are held.  This reproduces StarEngine::SyncReplicate's
/// memory behaviour — per-worker batch buffers that re-adopt recycled
/// payload-pool strings, and a hook constructed once per worker — so the
/// alloc counter certifies the sync path stays off the allocator too (the
/// ack round trip is the fabric's latency domain, not the allocator's).
HotPathResult BenchSyncReplicationPath(uint64_t txns) {
  auto db = MakeDb();
  auto replica = MakeDb();
  net::SimTransport fabric(2, IdealNet());
  net::Endpoint ep(&fabric, 0);  // never Start()ed: we drain inline
  ReplicationCounters counters(2);
  ReplicationApplier applier(replica.get(), &counters);
  Rng rng(13);
  TidGenerator gen(0);
  std::atomic<uint64_t> epoch{1};
  SiloContext ctx(db.get(), &rng, 0);

  // The worker-state scratch StarEngine hoists: persists across commits.
  std::vector<WriteBuffer> batches(2);

  net::Message m;
  auto drain = [&] {
    while (fabric.Poll(1, &m)) {
      applier.ApplyBatch(m.src, m.payload);
      fabric.payload_pool().Release(1, std::move(m.payload));
    }
  };
  PreInstallHook hook = [&](uint64_t tid, WriteSet& ws) {
    WriteBuffer& b = batches[1];
    uint64_t n = 0;
    for (const auto& e : ws.entries()) {
      if (e.is_delete) {
        SerializeDeleteEntry(b, e.table, e.partition, e.key, tid);
      } else {
        SerializeValueEntry(b, e.table, e.partition, e.key, tid,
                            ws.ValueView(e));
      }
      ++n;
    }
    if (!b.empty()) {
      if (ep.Send(1, net::MsgType::kReplicationBatch, b.Release())) {
        counters.AddSent(1, n);
      }
      b.Adopt(ep.AcquirePayload());
    }
    return true;
  };
  // Synchronous replication is ack-paced — at most one batch per worker in
  // flight — so the replica drains after every commit (draining lazily
  // would overflow the payload pool's per-shard cap and charge the
  // allocator for a backlog the real sync path never builds).
  auto one = [&] {
    ctx.Reset();
    RunProc(ctx, rng);
    SiloOccCommit(ctx, gen, epoch, hook);
    drain();
  };

  for (uint64_t i = 0; i < txns / 8; ++i) one();  // warm up capacities

  uint64_t allocs0 = g_allocations.load();
  uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < txns; ++i) one();
  drain();
  uint64_t dt = NowNanos() - t0;
  uint64_t allocs = g_allocations.load() - allocs0;

  HotPathResult r;
  r.tps = static_cast<double>(txns) / (static_cast<double>(dt) / 1e9);
  r.allocs_per_txn = static_cast<double>(allocs) / static_cast<double>(txns);
  return r;
}

// ---------------------------------------------------------------------------
// Substrate micro-ops (ns/op)
// ---------------------------------------------------------------------------

template <typename T>
inline void benchmark_do_not_optimize(T&& v) {
  asm volatile("" : : "g"(v) : "memory");
}

template <typename F>
double NsPerOp(const char* name, uint64_t iters, F&& f) {
  f();  // warm
  uint64_t t0 = NowNanos();
  for (uint64_t i = 0; i < iters; ++i) f();
  double ns = static_cast<double>(NowNanos() - t0) / iters;
  std::printf("%-28s %10.1f ns/op\n", name, ns);
  JsonLog::Instance().Row({{"bench", name}, {"ns_per_op", JsonLog::Format(ns)}});
  return ns;
}

void BenchSubstrate() {
  {
    HashTable ht(kValueSize, kRows, false);
    for (uint64_t k = 0; k < kRows; ++k) ht.GetOrInsert(k);
    Rng rng(1);
    NsPerOp("hash_table_get", 2'000'000,
            [&] { benchmark_do_not_optimize(ht.Get(rng.Uniform(kRows))); });
  }
  {
    HashTable ht(kValueSize, 1024, false);
    auto row = ht.GetOrInsertRow(1);
    row.rec->UnlockWithTid(Tid::Make(1, 1, 0));
    char out[kValueSize];
    NsPerOp("read_stable", 2'000'000,
            [&] { benchmark_do_not_optimize(row.ReadStable(out)); });
  }
  {
    TidGenerator gen(1);
    uint64_t observed = 0;
    NsPerOp("tid_generate", 2'000'000, [&] {
      observed = gen.Generate(observed, 1);
      benchmark_do_not_optimize(observed);
    });
  }
  {
    std::string value(kValueSize, 'v');
    NsPerOp("rep_entry_round_trip", 500'000, [&] {
      WriteBuffer buf;
      SerializeValueEntry(buf, 0, 0, 42, Tid::Make(1, 1, 0), value);
      ReadBuffer in(buf.data());
      RepEntry e = RepEntry::Deserialize(in);
      benchmark_do_not_optimize(e.value.size());
    });
  }
}

// ---------------------------------------------------------------------------
// Table growth: insert and Get cost as an order_line-shaped table fills
// ---------------------------------------------------------------------------

/// TPC-C order_line's shape at the default scale: 64-byte values, two
/// versions, sized for 8 x 10 districts x 600 customers rows.
constexpr uint32_t kGrowthValueSize = 64;
constexpr uint64_t kGrowthSizedRows = 48'000;
/// Fill levels, in multiples of the sized rows.
constexpr uint64_t kGrowthFills[] = {1, 8, 32};
constexpr uint64_t kGrowthTop = 32;

/// Row i as order_line keys arrive: ten lines per order, orders dealt
/// round-robin over ten districts (TpccWorkload::OrderLineKey's packing).
uint64_t GrowthKey(uint64_t i) {
  uint64_t district = (i / 10) % 10;
  uint64_t order = i / 100;
  return (((district << 40) | order) << 4) | (i % 10);
}

struct GrowthCost {
  double insert_ns = 0;
  double get_ns = 0;
};

/// Fills a table sized for `sized` rows up to each of `fills` (in rows).
/// An insert costs the mean over the second half of the rows before the
/// level: a window of constant relative width, which at 8x and 32x spans a
/// doubling and the cells linked after it.  Gets draw from a fixed-size
/// random sample of the keys present, so every level looks up the same
/// number of distinct records and what grows with the fill is the walk to a
/// record, not the working set the caches must hold.
std::vector<GrowthCost> FillAndMeasure(uint64_t sized, bool ordered,
                                       const std::vector<uint64_t>& fills) {
  HashTable ht(kGrowthValueSize, sized, /*two_version=*/true, ordered);
  const uint64_t sample_size = std::min<uint64_t>(sized, 16'384);
  const uint64_t gets = 1'000'000;
  std::vector<uint64_t> sample(sample_size);
  std::vector<GrowthCost> out;
  Rng rng(17);
  uint64_t rows = 0;
  for (uint64_t target : fills) {
    for (; rows < target / 2; ++rows) ht.GetOrInsert(GrowthKey(rows));
    GrowthCost c;
    uint64_t t0 = NowNanos();
    const uint64_t from = rows;
    for (; rows < target; ++rows) ht.GetOrInsert(GrowthKey(rows));
    c.insert_ns = static_cast<double>(NowNanos() - t0) / (rows - from);
    for (uint64_t& k : sample) k = GrowthKey(rng.Uniform(rows));
    t0 = NowNanos();
    for (uint64_t i = 0; i < gets; ++i) {
      benchmark_do_not_optimize(ht.Get(sample[rng.Uniform(sample_size)]));
    }
    c.get_ns = static_cast<double>(NowNanos() - t0) / gets;
    out.push_back(c);
  }
  return out;
}

/// Best of `reps` runs per level: the cost without the host's interference.
std::vector<GrowthCost> BestOf(int reps, uint64_t sized, bool ordered,
                               const std::vector<uint64_t>& fills) {
  std::vector<GrowthCost> best;
  for (int r = 0; r < reps; ++r) {
    std::vector<GrowthCost> run = FillAndMeasure(sized, ordered, fills);
    if (best.empty()) {
      best = run;
      continue;
    }
    for (size_t i = 0; i < run.size(); ++i) {
      best[i].insert_ns = std::min(best[i].insert_ns, run[i].insert_ns);
      best[i].get_ns = std::min(best[i].get_ns, run[i].get_ns);
    }
  }
  return best;
}

void GrowthRow(const char* variant, const char* level, uint64_t fill,
               uint64_t rows, const GrowthCost& c) {
  std::printf("growth_%-9s %-8s %8" PRIu64 " rows  insert %7.1f ns/op  "
              "get %6.1f ns/op\n",
              variant, level, rows, c.insert_ns, c.get_ns);
  JsonLog::Instance().Row({{"bench", std::string("table_growth_") + variant},
                           {"level", level},
                           {"fill", std::to_string(fill)},
                           {"rows", std::to_string(rows)},
                           {"insert_ns_per_op", JsonLog::Format(c.insert_ns)},
                           {"get_ns_per_op", JsonLog::Format(c.get_ns)}});
}

/// Growth rows plus the gate.  A table sized for R rows is filled to 1x,
/// 8x and 32x R; the reference is a table sized for 32x R from the start,
/// filled to the same 32x R in the same run.  The gate holds insert and Get
/// of the grown table at 32x within 1.5x of the reference's: growing must
/// cost what sizing right would have.  The reference, and not the same
/// table at 1x, because a 1x table sits in L2 and a 32x one does not, so
/// even a right-sized table reads several times its 1x cost (the 32x/1x
/// ratios are printed too).  A chained table that never grows reads 4-10x
/// (insert) and 10-16x (Get) against the reference.  Below full scale the
/// levels are too small to tell apart, so the gate reads not evaluable.
void BenchGrowth() {
  constexpr double kGateRatio = 1.5;
  constexpr int kReps = 3;
  const double scale = bench::Scale();
  const bool evaluable = scale >= 1.0;
  const uint64_t sized = std::max<uint64_t>(
      1'000, static_cast<uint64_t>(kGrowthSizedRows * std::min(scale, 1.0)));
  std::vector<uint64_t> fills;
  for (uint64_t f : kGrowthFills) fills.push_back(sized * f);
  for (bool ordered : {false, true}) {
    const char* variant = ordered ? "ordered" : "hash_only";
    std::vector<GrowthCost> grown = BestOf(kReps, sized, ordered, fills);
    GrowthCost ref = BestOf(kReps, sized * kGrowthTop, ordered,
                            {sized * kGrowthTop})
                         .back();
    for (size_t i = 0; i < grown.size(); ++i) {
      char level[16];
      std::snprintf(level, sizeof(level), "%" PRIu64 "x", kGrowthFills[i]);
      GrowthRow(variant, level, kGrowthFills[i], fills[i], grown[i]);
    }
    GrowthRow(variant, "sized32x", kGrowthTop, sized * kGrowthTop, ref);
    const GrowthCost& top = grown.back();
    double insert_ratio = top.insert_ns / ref.insert_ns;
    double get_ratio = top.get_ns / ref.get_ns;
    bool pass = insert_ratio <= kGateRatio && get_ratio <= kGateRatio;
    const char* verdict = !evaluable ? "NOT EVALUABLE (reduced scale)"
                                     : (pass ? "PASS" : "FAIL");
    std::printf("growth_%-9s gate 32x vs sized32x: insert %.2fx get %.2fx "
                "(<= %.1fx)  %s   [32x/1x: insert %.2fx get %.2fx]\n",
                variant, insert_ratio, get_ratio, kGateRatio, verdict,
                top.insert_ns / grown.front().insert_ns,
                top.get_ns / grown.front().get_ns);
    JsonLog::Instance().Row(
        {{"bench", std::string("table_growth_gate_") + variant},
         {"insert_ratio", JsonLog::Format(insert_ratio)},
         {"get_ratio", JsonLog::Format(get_ratio)},
         {"insert_ratio_32x_1x",
          JsonLog::Format(top.insert_ns / grown.front().insert_ns)},
         {"get_ratio_32x_1x", JsonLog::Format(top.get_ns / grown.front().get_ns)},
         {"bound", JsonLog::Format(kGateRatio)},
         {"gate_evaluable", evaluable ? "true" : "false"},
         {"gate_pass", evaluable && pass ? "true" : "false"}});
  }
}

}  // namespace
}  // namespace star

int main() {
  star::bench::PrintHeader(
      "micro_substrate",
      "Substrate micro-ops and hot-path txns/sec + allocations per "
      "committed transaction (steady state).");

  star::BenchSubstrate();
  star::BenchGrowth();

  uint64_t txns = static_cast<uint64_t>(200'000 * star::bench::Scale());
  star::Report("partitioned_hot_path", star::BenchPartitionedPhase(txns));
  star::Report("single_master_hot_path", star::BenchSingleMasterPhase(txns));
  star::Report("sync_replication_hot_path",
               star::BenchSyncReplicationPath(txns));
  return 0;
}
