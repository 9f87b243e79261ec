// perfbench: the repository benchmark (see README.md in this directory).
//
// One process hosts a whole STAR cluster — f=1 full replica plus k=2
// partial replicas, one worker per node, so 3 partitions — over real TCP
// loopback, and drives one of three workloads against it:
//
//   ycsb_serve    open loop through the serving front end (ServeServer),
//                 Poisson 10,000 req/s: 50% read-only, 45% single, 5% cross;
//   tpcc_closed   closed loop at saturation through the engine's synthetic
//                 load (TPC-C NewOrder+Payment, 10% cross-partition), with
//                 a 2,000 txn/s probe stream submitted straight to the
//                 engine for latency;
//   ycsb_durable  open loop, Poisson 5,000 writes/s (90% single, 10%
//                 cross), every call with kCallWaitDurable, durable logging,
//                 fsync and checkpointing on.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR --result FILE [--commit C] [--source-hash H]
//
// The run measures S seconds in episodes of about five one-second windows,
// each on a freshly set-up cluster after a one-second warm-up (setup_s is
// the median over the episodes' set-ups).  Each latency is the median, and
// commit_tps the total, over the quieter half of the windows: those in
// which the hypervisor took the least CPU time from the host.  With
// --trace 1 the even windows are traced (spans, a polled timeline, a share
// of requests sent straight to the engine) and the odd ones are not, so the
// end-to-end numbers of the two halves give the tracing overhead; afterwards
// every layer is driven directly (layers.h).  Every run checks its outputs;
// the result (metrics, checks, host fingerprint) is written as JSON to FILE.
// Exit status: 0 all checks passed, 1 a check failed, 2 the run could not
// be set up.

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "client.h"
#include "common/clock.h"
#include "core/engine.h"
#include "layers.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "storage/checksum.h"
#include "trace.h"
#include "wal/wal.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using star::NowNanos;
using star::StarEngine;
using star::StarOptions;

// --- workloads ------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool open_loop;      // through the serving front end
  bool tpcc;           // TPC-C (else YCSB)
  double rate;         // open loop: arrivals/s; closed loop: probes/s
  double read_share;   // of arrivals
  double cross_share;  // of arrivals (closed loop: of probes)
  bool durable;        // durable_logging + fsync + checkpointing, wait_durable
  int readers;         // replica_read_workers per node
};

const WorkloadSpec kWorkloads[] = {
    {"ycsb_serve", true, false, 10000.0, 0.50, 0.05, false, 1},
    {"tpcc_closed", false, true, 2000.0, 0.0, 0.5, false, 0},
    {"ycsb_durable", true, false, 5000.0, 0.0, 0.10, true, 0},
};

/// The cluster every workload runs on.  Only the fields that define the
/// workload are set; every other StarOptions field keeps its default.
StarOptions ClusterOptions(const WorkloadSpec& spec, uint64_t seed,
                           const std::string& log_dir) {
  StarOptions o;
  o.cluster.full_replicas = 1;
  o.cluster.partial_replicas = 2;
  o.cluster.workers_per_node = 1;
  o.cluster.seed = seed;
  o.transport = star::net::TransportKind::kTcp;
  o.synthetic_load = !spec.open_loop;
  o.replica_read_workers = spec.readers;
  if (spec.durable) {
    o.durable_logging = true;
    o.fsync = true;
    o.checkpointing = true;
    o.log_dir = log_dir;
  }
  return o;
}

// --- cluster lifecycle ----------------------------------------------------

struct Cluster {
  std::unique_ptr<star::Workload> workload;
  std::unique_ptr<star::serve::ProcRegistry> registry;
  std::unique_ptr<StarEngine> engine;
  std::unique_ptr<star::serve::ServeServer> server;
  std::unique_ptr<OpenLoopClient> client;
  std::string log_dir;
};

/// Construct, populate, start, connect; `seconds` receives the time that
/// took and `rss_mb` the resident memory construct+populate+start added.
/// `tracer` is the traced run's (else null); `trace_setup` records this
/// set-up's spans.  Returns false if the server or a client connection
/// could not be brought up.
bool SetUp(const WorkloadSpec& spec, uint64_t seed, const std::string& log_dir,
           DirectSink* sink, Tracer* tracer, bool trace_setup, Cluster* c,
           double* seconds, double* rss_mb) {
  std::filesystem::remove_all(log_dir);
  double rss0 = RssMb();
  uint64_t t0 = NowNanos();
  if (spec.tpcc) {
    c->workload = std::make_unique<star::TpccWorkload>();
  } else {
    c->workload = std::make_unique<star::YcsbWorkload>();
  }
  c->registry = std::make_unique<star::serve::ProcRegistry>(
      star::serve::ProcRegistry::ForWorkload(*c->workload));
  c->log_dir = log_dir;
  c->engine = std::make_unique<StarEngine>(
      ClusterOptions(spec, seed, log_dir), *c->workload);
  uint64_t t1 = NowNanos();
  c->engine->Start();
  uint64_t t2 = NowNanos();
  *rss_mb = RssMb() - rss0;
  uint64_t t3 = t2;
  uint64_t t4 = t2;
  if (spec.open_loop) {
    c->server = std::make_unique<star::serve::ServeServer>(
        c->engine.get(), c->registry.get(), star::serve::ServeOptions());
    if (!c->server->Start()) return false;
    t3 = NowNanos();
    ClientOptions co;
    co.port = c->server->port();
    co.threads = 2;
    co.conns_per_thread = 2;
    co.rate = spec.rate;
    co.read_share = spec.read_share;
    co.cross_share = spec.cross_share;
    co.wait_durable = spec.durable;
    co.partitions = c->engine->options().cluster.num_partitions();
    co.seed = seed;
    co.direct_share = tracer != nullptr ? 0.1 : 0.0;
    c->client = std::make_unique<OpenLoopClient>(
        co, c->engine.get(), c->registry.get(), sink, tracer);
    if (!c->client->Connect(10.0)) return false;
    t4 = NowNanos();
  }
  *seconds = static_cast<double>(t4 - t0) / 1e9;
  // Outside the timed setup: let the first fence complete.  StarEngine::Stop
  // called before the coordinator's first phase has run never returns, and
  // a discarded setup is stopped right away.
  while (c->engine->fence_count() < 1) {
    if (NowNanos() - t4 > 30'000'000'000ull) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (trace_setup) {
    uint64_t root = tracer->Record("setup", t0, t4);
    tracer->Record("setup.construct", t0, t1, root);
    tracer->Record("setup.start", t1, t2, root);
    if (spec.open_loop) {
      tracer->Record("setup.serve", t2, t3, root);
      tracer->Record("setup.connect", t3, t4, root);
    }
  }
  return true;
}

/// Ordered teardown: the server must outlive engine.Stop() (completion
/// callbacks), the workload must outlive the engine.
void TearDown(Cluster* c) {
  c->client.reset();
  if (c->server != nullptr) c->server->Stop();
  if (c->engine != nullptr) c->engine->Stop();
  c->server.reset();
  c->engine.reset();
  c->registry.reset();
  c->workload.reset();
  if (!c->log_dir.empty()) std::filesystem::remove_all(c->log_dir);
}

// --- polled counters --------------------------------------------------------

/// Engine and host counters captured at a window boundary.
struct Snap {
  uint64_t t_ns = 0;
  CpuTimes cpu;
  star::Metrics m;
  uint64_t epoch = 0;
  uint64_t fence_count = 0;
  uint64_t fence_ns = 0;
  uint64_t fence_stop_ns = 0;
  uint64_t fence_drain_ns = 0;
};

Snap Capture(const StarEngine& e) {
  Snap s;
  s.m = e.Snapshot();
  s.t_ns = NowNanos();
  s.cpu = ReadCpuTimes();
  s.epoch = e.epoch();
  s.fence_count = e.fence_count();
  s.fence_ns = static_cast<uint64_t>(e.fence_seconds() * 1e9);
  s.fence_stop_ns = e.fence_stop_ns();
  s.fence_drain_ns = e.fence_drain_ns();
  return s;
}

TimelinePoint Poll(const StarEngine& e, const star::serve::ServeServer* srv) {
  TimelinePoint p;
  p.t_ns = NowNanos();
  p.epoch = e.epoch();
  p.fence_count = e.fence_count();
  p.fence_stop_ns = e.fence_stop_ns();
  p.fence_drain_ns = e.fence_drain_ns();
  p.durable_epoch = e.durable_epoch();
  if (srv != nullptr) {
    p.inflight = srv->admission().inflight();
    p.est_wait_ns = p.inflight * srv->admission().inter_complete_ns();
  }
  p.queue_depth = e.ExternalDepth();
  star::Metrics m = e.Snapshot();
  p.committed = m.committed;
  p.wal_bytes = m.wal_bytes;
  p.wal_fsyncs = m.wal_fsyncs;
  p.checkpoints = m.checkpoints;
  p.checkpoint_bytes = m.checkpoint_bytes;
  return p;
}

// --- checks -------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

void AddCheck(std::vector<Check>* checks, const std::string& name, bool ok,
              const std::string& detail) {
  checks->push_back(Check{name, ok, detail});
}

std::string Fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

void CheckAccounting(std::vector<Check>* checks, const char* source,
                     const std::vector<WindowStats>& windows) {
  for (int c = 0; c < kClasses; ++c) {
    ClassCounts t;
    for (const WindowStats& w : windows) t.Add(w.counts[c]);
    if (t.offered == 0) continue;
    bool ok = t.offered == t.resolved() && t.bad == 0;
    AddCheck(checks, Fmt("%s.%s accounting", source, ClassName(c)), ok,
             Fmt("offered=%" PRIu64 " ok=%" PRIu64 " rollback=%" PRIu64
                 " aborted=%" PRIu64 " shed=%" PRIu64 " retry=%" PRIu64
                 " bad=%" PRIu64 " lost=%" PRIu64 " (resent=%" PRIu64
                 " shed_replies=%" PRIu64 ")",
                 t.offered, t.ok, t.rollback, t.aborted, t.shed, t.retry,
                 t.bad, t.lost, t.resent, t.shed_replies));
  }
}

// --- metrics from windows ---------------------------------------------------

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Windows whose numbers make up one side of the run: all measured windows
/// untraced; in a traced run the untraced or the traced half.
std::vector<int> WindowSet(const Schedule& s, bool traced) {
  std::vector<int> out;
  for (int w = 1; w <= s.total; ++w) {
    if (s.Traced(w) == traced) out.push_back(w);
  }
  return out;
}

/// The median over the `quiet` windows of each window's q-quantile.
/// per_window holds the quantile of every window in `all` (0 when it has no
/// sample), in the order of host_steal_share's per_window.
Metric Latency(const std::vector<WindowStats>& win, const std::vector<int>& all,
               const std::vector<int>& quiet, int cls, double q) {
  Metric m{0, "ms", 0, {}};
  std::vector<double> picked;
  for (int w : all) {
    const Samples& s = win[static_cast<size_t>(w)].latency[cls];
    double v = s.QuantileMs(q);
    m.per_window.push_back(v);
    if (s.size() > 0 && std::binary_search(quiet.begin(), quiet.end(), w)) {
      picked.push_back(v);
      m.samples += s.size();
    }
  }
  m.value = Median(picked);
  return m;
}

/// One quantile over the union of the windows' samples (traced-window
/// per-module figures, which rest on fewer requests).
Metric PooledLatency(const std::vector<WindowStats>& win,
                     const std::vector<int>& set, int cls, double q) {
  Samples all;
  for (int w : set) all.Append(win[static_cast<size_t>(w)].latency[cls]);
  return Metric{all.QuantileMs(q), "ms", all.size(), {}};
}

struct RunData {
  const WorkloadSpec* spec = nullptr;
  Schedule sched;                   // the current episode's
  std::vector<WindowStats> client;  // open loop: socket requests
  std::vector<WindowStats> direct;  // DirectSink requests
  std::vector<Snap> snap_begin;     // [w] engine counters as window w starts
  std::vector<Snap> snap_end;       // [w] and as it ends
  std::vector<double> rss_max;      // per window
  std::vector<double> disk_max;     // per window
  std::vector<TimelinePoint> timeline;
  std::vector<double> setups_untraced;
  std::vector<double> setups_traced;
};

/// Share of the host's CPU time the hypervisor took (steal) in window w.
double WindowSteal(const RunData& d, int w) {
  const CpuTimes& a = d.snap_begin[static_cast<size_t>(w)].cpu;
  const CpuTimes& b = d.snap_end[static_cast<size_t>(w)].cpu;
  return Ratio(b.steal - a.steal, b.total - a.total);
}

/// The quieter half of `set`: the windows in which the hypervisor took the
/// least CPU time from this host.  Steal comes in phases of tens of seconds
/// on a shared host and slows every thread of the cluster; ranking windows
/// by it, not by the metric, keeps whatever the program itself does in any
/// window (a stall included) in the sample.
std::vector<int> QuietHalf(const RunData& d, std::vector<int> set) {
  std::stable_sort(set.begin(), set.end(), [&](int a, int b) {
    return WindowSteal(d, a) < WindowSteal(d, b);
  });
  set.resize((set.size() + 1) / 2);
  std::sort(set.begin(), set.end());
  return set;
}

/// The end-to-end metrics over one window set.  Latencies are medians over
/// its quieter half (QuietHalf), commit_tps the total over that half;
/// failed_ratio is over every window, memory and disk are peaks.  Every
/// per_window list covers all windows of the set, in the same order.
MetricMap EndToEnd(const RunData& d, const std::vector<int>& all,
                   const std::vector<double>& setups) {
  MetricMap m;
  m["setup_s"] = Metric{Median(setups), "s", setups.size(), {}};
  const std::vector<int> quiet = QuietHalf(d, all);
  const std::vector<WindowStats>& lat =
      d.spec->open_loop ? d.client : d.direct;
  m["write_p50_ms"] = Latency(lat, all, quiet, kWrite, 0.50);
  m["write_p90_ms"] = Latency(lat, all, quiet, kWrite, 0.90);
  m["write_p99_ms"] = Latency(lat, all, quiet, kWrite, 0.99);
  m["cross_p50_ms"] = Latency(lat, all, quiet, kCross, 0.50);
  m["cross_p90_ms"] = Latency(lat, all, quiet, kCross, 0.90);
  m["cross_p99_ms"] = Latency(lat, all, quiet, kCross, 0.99);
  if (d.spec->read_share > 0) {
    m["read_p50_ms"] = Latency(lat, all, quiet, kRead, 0.50);
    m["read_p90_ms"] = Latency(lat, all, quiet, kRead, 0.90);
    m["read_p99_ms"] = Latency(lat, all, quiet, kRead, 0.99);
  }

  Metric tps{0, "txn/s", 0, {}};
  // Not a metric of the program: how much CPU the hypervisor took from this
  // host in each window, to tell a noisy run from a regression.
  Metric steal{0, "fraction", all.size(), {}};
  uint64_t ns_quiet = 0, offered = 0, failed = 0;
  double rss = 0, disk = 0;
  for (int w : all) {
    const Snap& a = d.snap_begin[static_cast<size_t>(w)];
    const Snap& b = d.snap_end[static_cast<size_t>(w)];
    uint64_t committed = 0;
    uint64_t ns = 0;
    if (d.spec->open_loop) {
      // Socket requests plus, in traced windows, the share sent direct.
      for (int c = 0; c < kClasses; ++c) {
        for (const auto* src : {&d.client, &d.direct}) {
          const ClassCounts& cc = (*src)[static_cast<size_t>(w)].counts[c];
          committed += cc.ok;
          offered += cc.offered;
          failed += cc.failed();
        }
      }
      ns = d.sched.window_ns;
    } else {
      uint64_t aborted = b.m.aborted - a.m.aborted;
      committed = b.m.committed - a.m.committed;
      offered += committed + aborted;
      failed += aborted;
      ns = b.t_ns - a.t_ns;
    }
    tps.per_window.push_back(static_cast<double>(committed) /
                             (static_cast<double>(ns) / 1e9));
    if (std::binary_search(quiet.begin(), quiet.end(), w)) {
      tps.samples += committed;
      ns_quiet += ns;
    }
    steal.per_window.push_back(WindowSteal(d, w));
    rss = std::max(rss, d.rss_max[static_cast<size_t>(w)]);
    disk = std::max(disk, d.disk_max[static_cast<size_t>(w)]);
  }
  // A total over the windows, not a median: closed-loop throughput falls
  // within each episode as TPC-C inserts grow the tables, and a median
  // would read one point of that curve.
  tps.value = ns_quiet ? static_cast<double>(tps.samples) /
                             (static_cast<double>(ns_quiet) / 1e9)
                       : 0.0;
  m["commit_tps"] = tps;
  steal.value = Median(steal.per_window);
  m["host_steal_share"] = steal;
  m["failed_ratio"] = Metric{Ratio(failed, offered), "fraction", offered, {}};
  m["peak_rss_mb"] = Metric{rss, "MB", all.size(), {}};
  if (d.spec->durable) m["disk_mb"] = Metric{disk, "MB", all.size(), {}};
  return m;
}

// --- per-module metrics -----------------------------------------------------

struct LayerName {
  const char* name;
  const char* unit;
};

/// Every per-module metric a traced run reports, in report order.  Metrics
/// a workload does not exercise read 0 (e.g. wal.* without durability).
const LayerName kLayerMetrics[] = {
    {"client.late_p99_ms", "ms"},
    {"serve.overhead_read_p50_ms", "ms"},
    {"serve.overhead_write_p50_ms", "ms"},
    {"serve.shed_ratio", "fraction"},
    {"serve.inflight_max", "count"},
    {"serve.est_wait_ms_max", "ms"},
    {"core.direct_read_p50_ms", "ms"},
    {"core.direct_read_p99_ms", "ms"},
    {"core.direct_write_p50_ms", "ms"},
    {"core.direct_write_p99_ms", "ms"},
    {"core.direct_cross_p50_ms", "ms"},
    {"core.direct_cross_p99_ms", "ms"},
    {"core.epoch_ms", "ms"},
    {"core.fence_ms", "ms"},
    {"core.fence_stop_ms", "ms"},
    {"core.fence_drain_ms", "ms"},
    {"core.fence_share", "fraction"},
    {"core.tau_p_ms", "ms"},
    {"core.tau_s_ms", "ms"},
    {"core.cross_share", "fraction"},
    {"core.queue_depth_max", "count"},
    {"cc.read_conflict_ratio", "fraction"},
    {"cc.read_abort_ratio", "fraction"},
    {"cc.read_lag_epochs", "epochs"},
    {"cc.txn_us_single", "us"},
    {"cc.txn_us_cross", "us"},
    {"storage.get_ns", "ns"},
    {"storage.populate_s", "s"},
    {"storage.rss_mb", "MB"},
    {"replication.bytes_per_commit", "B"},
    {"replication.msgs_per_commit", "msg/txn"},
    {"replication.encode_ns_per_txn", "ns"},
    {"replication.apply_ns_per_entry", "ns"},
    {"net.mb_per_s", "MB/s"},
    {"net.msgs_per_s", "1/s"},
    {"net.batch_us", "us"},
    {"net.dropped_msgs", "count"},
    {"wal.bytes_per_commit", "B"},
    {"wal.append_ns_per_txn", "ns"},
    {"wal.fsyncs_per_epoch", "fsync/epoch"},
    {"wal.durable_lag_epochs", "epochs"},
    {"wal.durable_gap_p99_ms", "ms"},
    {"wal.durable_gap_max_ms", "ms"},
    {"wal.checkpoint_mb_per_s", "MB/s"},
    {"wal.checkpoint_ms", "ms"},
    {"wal.checkpoint_delta_ms", "ms"},
    {"wal.recovery_s", "s"},
};

/// End-to-end metrics whose tracing overhead the traced run reports as
/// `trace.<name>` (traced half minus untraced half).
const LayerName kOverheadOf[] = {
    {"setup_s", "s"},          {"commit_tps", "txn/s"},
    {"read_p50_ms", "ms"},     {"read_p90_ms", "ms"},
    {"read_p99_ms", "ms"},     {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},    {"write_p99_ms", "ms"},
    {"cross_p50_ms", "ms"},    {"cross_p90_ms", "ms"},
    {"cross_p99_ms", "ms"},    {"failed_ratio", "fraction"},
    {"peak_rss_mb", "MB"},     {"disk_mb", "MB"},
};

/// Per-module metrics read from the traced windows: client lateness, the
/// direct share, server and admission, and the engine's counters.
void PerModule(const RunData& d, const std::vector<int>& traced,
               MetricMap* m) {
  const bool open = d.spec->open_loop;
  auto put = [&](const char* name, double v, uint64_t n) {
    Metric& x = (*m)[name];
    x.value = v;
    x.samples = n;
  };

  Samples late;
  for (int w : traced) {
    late.Append((open ? d.client : d.direct)[static_cast<size_t>(w)].late);
  }
  put("client.late_p99_ms", late.QuantileMs(0.99), late.size());

  const char* direct_names[kClasses][2] = {
      {"core.direct_read_p50_ms", "core.direct_read_p99_ms"},
      {"core.direct_write_p50_ms", "core.direct_write_p99_ms"},
      {"core.direct_cross_p50_ms", "core.direct_cross_p99_ms"}};
  for (int c = 0; c < kClasses; ++c) {
    Metric p50 = PooledLatency(d.direct, traced, c, 0.50);
    Metric p99 = PooledLatency(d.direct, traced, c, 0.99);
    put(direct_names[c][0], p50.value, p50.samples);
    put(direct_names[c][1], p99.value, p99.samples);
  }

  if (open) {
    auto overhead = [&](int cls, const char* name) {
      Metric client = PooledLatency(d.client, traced, cls, 0.50);
      Metric direct = PooledLatency(d.direct, traced, cls, 0.50);
      if (client.samples > 0 && direct.samples > 0) {
        put(name, client.value - direct.value, client.samples);
      }
    };
    overhead(kRead, "serve.overhead_read_p50_ms");
    overhead(kWrite, "serve.overhead_write_p50_ms");
    // Per call sent: a shed request that is retried is sent again.
    uint64_t shed = 0, sent = 0;
    for (int w : traced) {
      for (int c = 0; c < kClasses; ++c) {
        const ClassCounts& cc = d.client[static_cast<size_t>(w)].counts[c];
        shed += cc.shed_replies;
        sent += cc.offered + cc.resent;
      }
    }
    put("serve.shed_ratio", Ratio(shed, sent), sent);
  }

  uint64_t inflight = 0, est = 0, depth = 0, lag = 0;
  for (const TimelinePoint& p : d.timeline) {
    inflight = std::max(inflight, p.inflight);
    est = std::max(est, p.est_wait_ns);
    depth = std::max(depth, p.queue_depth);
    if (p.epoch > p.durable_epoch) lag += p.epoch - p.durable_epoch;
  }
  uint64_t points = d.timeline.size();
  if (open) {
    put("serve.inflight_max", static_cast<double>(inflight), points);
    put("serve.est_wait_ms_max", static_cast<double>(est) / 1e6, points);
  }
  put("core.queue_depth_max", static_cast<double>(depth), points);

  // Engine counter deltas summed over the traced windows.
  uint64_t dt = 0, depoch = 0, dfences = 0, dfence_ns = 0, dstop = 0,
           ddrain = 0, dcommitted = 0, dcross = 0, dreads = 0, dread_aborts = 0,
           dconflicts = 0, dlag = 0;
  for (int w : traced) {
    const Snap& a = d.snap_begin[static_cast<size_t>(w)];
    const Snap& b = d.snap_end[static_cast<size_t>(w)];
    dt += b.t_ns - a.t_ns;
    depoch += b.epoch - a.epoch;
    dfences += b.fence_count - a.fence_count;
    dfence_ns += b.fence_ns - a.fence_ns;
    dstop += b.fence_stop_ns - a.fence_stop_ns;
    ddrain += b.fence_drain_ns - a.fence_drain_ns;
    dcommitted += b.m.committed - a.m.committed;
    dcross += b.m.cross_partition - a.m.cross_partition;
    dreads += b.m.replica_reads - a.m.replica_reads;
    dread_aborts += b.m.replica_read_aborts - a.m.replica_read_aborts;
    dconflicts += b.m.replica_read_conflicts - a.m.replica_read_conflicts;
    dlag += b.m.replica_read_lag_epochs - a.m.replica_read_lag_epochs;
  }
  put("core.epoch_ms", Ratio(dt, depoch) / 1e6, depoch);
  put("core.fence_ms", Ratio(dfence_ns, dfences) / 1e6, dfences);
  put("core.fence_stop_ms", Ratio(dstop, dfences) / 1e6, dfences);
  put("core.fence_drain_ms", Ratio(ddrain, dfences) / 1e6, dfences);
  put("core.fence_share", Ratio(dfence_ns, dt), dfences);
  put("core.cross_share", Ratio(dcross, dcommitted), dcommitted);
  if (dreads + dconflicts + dread_aborts > 0) {
    put("cc.read_conflict_ratio", Ratio(dconflicts, dreads + dconflicts),
        dreads + dconflicts);
    put("cc.read_abort_ratio", Ratio(dread_aborts, dreads + dread_aborts),
        dreads + dread_aborts);
    put("cc.read_lag_epochs", Ratio(dlag, dreads), dreads);
  }

  if (d.spec->durable) {
    put("wal.durable_lag_epochs", Ratio(lag, points), points);
    // Gaps between durable-epoch advances, within one traced window each.
    Samples gaps;
    int window = -1;
    uint64_t last_advance = 0;
    uint64_t prev_durable = 0;
    for (const TimelinePoint& p : d.timeline) {
      if (p.window != window) {
        window = p.window;
        last_advance = 0;
      } else if (p.durable_epoch > prev_durable) {
        if (last_advance != 0) gaps.Add(p.t_ns - last_advance);
        last_advance = p.t_ns;
      }
      prev_durable = p.durable_epoch;
    }
    put("wal.durable_gap_p99_ms", gaps.QuantileMs(0.99), gaps.size());
    put("wal.durable_gap_max_ms", gaps.MaxMs(), gaps.size());
  }
}

// --- output -------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(" \t", colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string out_dir;
  std::string result;
  std::string commit = "unknown";
  std::string source_hash = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--result") {
      a->result = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--source-hash") {
      a->source_hash = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0 &&
         !a->out_dir.empty() && !a->result.empty();
}

void PrintMetric(const std::string& name, const Metric& m) {
  std::printf("  %-32s %14.6g %-12s n=%" PRIu64 "\n", name.c_str(), m.value,
              m.unit.c_str(), m.samples);
}

bool WriteResult(const std::string& path, const Args& a,
                 const std::map<std::string, std::string>& fingerprint,
                 const std::vector<Check>& checks, uint64_t attempted,
                 uint64_t failed, const MetricMap& metrics) {
  bool correct = true;
  for (const Check& c : checks) correct &= c.ok;
  std::string out = "{";
  out += "\"workload\": \"" + JsonEscape(a.workload) + "\"";
  out += ", \"seed\": " + std::to_string(a.seed);
  out += ", \"seconds\": " + std::to_string(a.seconds);
  out += std::string(", \"trace\": ") + (a.trace ? "1" : "0");
  out += ", \"fingerprint\": {";
  bool first = true;
  for (const auto& [k, v] : fingerprint) {
    out += (first ? "\"" : ", \"") + JsonEscape(k) + "\": \"" + JsonEscape(v) +
           "\"";
    first = false;
  }
  out += "}";
  out += std::string(", \"correct\": ") + (correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"checks\": [";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += (i ? ", " : "") + std::string("{\"name\": \"") +
           JsonEscape(checks[i].name) + "\", \"ok\": " +
           (checks[i].ok ? "true" : "false") + ", \"detail\": \"" +
           JsonEscape(checks[i].detail) + "\"}";
  }
  out += "], \"metrics\": {";
  first = true;
  for (const auto& [k, v] : metrics) {
    out += (first ? "\"" : ", \"") + JsonEscape(k) + "\": {\"value\": " +
           JsonNumber(v.value) + ", \"unit\": \"" + JsonEscape(v.unit) +
           "\", \"samples\": " + std::to_string(v.samples);
    if (!v.per_window.empty()) {
      out += ", \"per_window\": [";
      for (size_t i = 0; i < v.per_window.size(); ++i) {
        out += (i ? ", " : "") + JsonNumber(v.per_window[i]);
      }
      out += "]";
    }
    out += "}";
    first = false;
  }
  out += "}}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(out.c_str(), f);
  return std::fclose(f) == 0;
}

// --- the run ------------------------------------------------------------

/// Measured windows per episode.  Each episode runs on a freshly set-up
/// cluster: TPC-C's tables grow with every NewOrder and its throughput falls
/// as they do, so short episodes measure every window from about the same
/// state.  Each episode's set-up is also a setup_s sample.
constexpr int kEpisodeWindows = 5;

/// Drives the current episode (d->sched) on cluster `c`: starts the load,
/// captures the engine's counters at every window boundary, samples memory
/// and disk, polls the timeline in traced windows, and collects the
/// client's per-window results once the load has drained.
void RunEpisode(RunData* d, Cluster* c, DirectSink* sink, uint64_t seed,
                const std::string& log_dir) {
  const WorkloadSpec& spec = *d->spec;
  Schedule& sched = d->sched;
  StarEngine* engine = c->engine.get();
  sched.start_ns = NowNanos();
  std::thread load;
  if (spec.open_loop) {
    load = std::thread([&] { c->client->Run(sched); });
  } else {
    load = std::thread([&] {
      sink->RunProbes(engine, *c->registry, spec.rate, spec.cross_share,
                      engine->options().cluster.num_partitions(), seed);
    });
  }
  const int last = sched.first + sched.windows - 1;
  auto boundary = [&](int b) {
    return b <= last ? sched.WindowStart(b) : sched.end_ns();
  };
  const uint64_t kSampleNs = 100'000'000ull;  // RSS and log-dir size
  const uint64_t kTimelineNs = 2'000'000ull;  // traced windows
  int next_b = sched.first;
  uint64_t next_sample = sched.start_ns;
  uint64_t next_poll = sched.start_ns;
  while (next_b <= last + 1) {
    uint64_t now = NowNanos();
    if (now >= boundary(next_b)) {
      Snap snap = Capture(*engine);
      size_t b = static_cast<size_t>(next_b);
      if (next_b > sched.first) d->snap_end[b - 1] = snap;
      if (next_b <= last) d->snap_begin[b] = snap;
      ++next_b;
      continue;
    }
    int w = std::max(0, sched.WindowOf(now));
    if (now >= next_sample) {
      double& r = d->rss_max[static_cast<size_t>(w)];
      r = std::max(r, RssMb());
      if (spec.durable) {
        double& dk = d->disk_max[static_cast<size_t>(w)];
        dk = std::max(dk, DirSizeMb(log_dir));
      }
      next_sample = now + kSampleNs;
    }
    bool traced = sched.Traced(w);
    if (traced && now >= next_poll) {
      TimelinePoint p = Poll(*engine, c->server.get());
      p.window = w;
      d->timeline.push_back(p);
      next_poll = now + kTimelineNs;
    }
    uint64_t wake = std::min(boundary(next_b), next_sample);
    if (traced) wake = std::min(wake, next_poll);
    now = NowNanos();
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
  }
  load.join();
  if (spec.open_loop) {
    const std::vector<WindowStats>& got = c->client->windows();
    for (size_t w = 0; w < got.size(); ++w) d->client[w].Add(got[w]);
  }
}

/// Replica convergence: every node storing a partition holds the same
/// checksum of it.  Fills `sums` with (node, partition) -> checksum.
bool Converged(StarEngine& engine,
               std::map<std::pair<int, int>, uint64_t>* sums,
               std::string* detail) {
  bool ok = true;
  const int nodes = engine.options().cluster.nodes();
  for (int p = 0; p < engine.options().cluster.num_partitions(); ++p) {
    uint64_t ref = 0;
    bool have = false;
    for (int n = 0; n < nodes; ++n) {
      star::Database* db = engine.database(n);
      if (db == nullptr || !db->HasPartition(p)) continue;
      uint64_t s = star::DatabasePartitionChecksum(*db, p);
      (*sums)[{n, p}] = s;
      if (have && s != ref) ok = false;
      ref = have ? ref : s;
      have = true;
      *detail += Fmt("p%d@n%d=%016" PRIx64 " ", p, n, s);
    }
  }
  return ok;
}

/// Durable workload: recovers each node's log directory into a freshly
/// populated database and compares it with the node's final checksums.
void CheckRecovery(const star::Workload& workload, int partitions, int nodes,
                   const std::string& log_dir,
                   const std::map<std::pair<int, int>, uint64_t>& sums,
                   int episode, Tracer* tr, std::vector<Check>* checks) {
  star::Placement placement = star::Placement::Star(1, 2, partitions);
  for (int n = 0; n < nodes; ++n) {
    std::vector<int> parts = placement.StoredPartitions(n);
    star::Database db(workload.Schemas(), partitions, parts, false);
    for (int p : parts) workload.PopulatePartition(db, p);
    uint64_t t0 = NowNanos();
    star::wal::RecoveryResult rr = star::wal::Recover(&db, log_dir, n);
    uint64_t t1 = NowNanos();
    if (tr != nullptr) tr->Record("layer.wal.recover", t0, t1);
    bool ok = true;
    std::string detail = Fmt("epoch=%" PRIu64 " in %.3f s ", rr.committed_epoch,
                             static_cast<double>(t1 - t0) / 1e9);
    for (int p : parts) {
      uint64_t s = star::DatabasePartitionChecksum(db, p);
      auto it = sums.find({n, p});
      ok &= it != sums.end() && s == it->second;
      detail += Fmt("p%d=%016" PRIx64 " ", p, s);
    }
    AddCheck(checks, Fmt("recovery e%d n%d", episode, n), ok, detail);
  }
}

int Run(const Args& a) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (a.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(a.out_dir);
  const std::string log_dir = a.out_dir + "/logs";

  std::map<std::string, std::string> fingerprint = {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu", CpuModel()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", a.commit},
      {"source_sha256", a.source_hash},
      {"seed", std::to_string(a.seed)},
  };
  std::printf("== perfbench %s  seed=%" PRIu64 "  seconds=%d  trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0);
  std::printf("host: nproc=%s cpu=\"%s\" build=%s commit=%s source=%.12s\n",
              fingerprint["nproc"].c_str(), fingerprint["cpu"].c_str(),
              PERFBENCH_BUILD_TYPE, a.commit.c_str(), a.source_hash.c_str());
  std::fflush(stdout);

  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  RunData d;
  d.spec = spec;
  // One-second windows: medians over many short windows shrug off the
  // seconds-long stalls a shared host inflicts on a few of them.
  d.sched.warmup_ns = 1'000'000'000ull;
  d.sched.window_ns = 1'000'000'000ull;
  d.sched.total = a.seconds;
  d.sched.trace = a.trace;
  const size_t nwin = static_cast<size_t>(a.seconds) + 1;
  d.client.assign(nwin, WindowStats());
  d.snap_begin.resize(nwin);
  d.snap_end.resize(nwin);
  d.rss_max.assign(nwin, 0.0);
  d.disk_max.assign(nwin, 0.0);
  DirectSink sink(&d.sched, tr);

  // The measured seconds are split into episodes of about kEpisodeWindows
  // windows; the last episode's cluster is kept for the layer drivers.
  const int episodes = std::max(1, a.seconds / kEpisodeWindows);
  std::vector<Check> checks;
  Cluster c;
  int partitions = 0;
  double cluster_rss_mb = 0;
  double tau_p = 0, tau_s = 0;
  uint64_t bad_frames = 0, ring_overflow = 0, dropped = 0, ignored = 0;
  bool direct_idle = true;
  bool converged = true;
  std::string convergence;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (int e = 0, first = 1; e < episodes; ++e) {
    // A traced run alternates untraced and traced set-ups, so setup_s has
    // an overhead figure too.
    bool trace_setup = a.trace && e % 2 == 1;
    // Each episode has inputs of its own, all derived from the run's seed.
    const uint64_t seed = a.seed + static_cast<uint64_t>(e) * 1000003ull;
    double secs = 0;
    double rss = 0;
    if (!SetUp(*spec, seed, spec->durable ? log_dir : std::string(), &sink,
               tr, trace_setup, &c, &secs, &rss)) {
      std::fprintf(stderr, "perfbench: cluster setup failed\n");
      TearDown(&c);
      return 2;
    }
    (trace_setup ? d.setups_traced : d.setups_untraced).push_back(secs);
    // The first set-up runs in a fresh process: its RSS growth is the
    // populated, started cluster's resident memory.
    if (e == 0) cluster_rss_mb = rss;
    StarEngine* engine = c.engine.get();
    partitions = engine->options().cluster.num_partitions();

    d.sched.first = first;
    d.sched.windows =
        a.seconds / episodes + (e < a.seconds % episodes ? 1 : 0);
    first += d.sched.windows;
    RunEpisode(&d, &c, &sink, seed, log_dir);
    direct_idle &= sink.WaitIdle(engine, 10.0);

    // --- stop + this episode's checks ---
    c.client.reset();
    if (c.server != nullptr) {
      c.server->Stop();
      star::serve::ServeServer::Counters sc = c.server->counters();
      bad_frames += sc.bad_frames;
      ring_overflow += sc.ring_overflow;
    }
    star::Metrics final_m = engine->Stop();
    tau_p = engine->current_tau_p_ms();
    tau_s = engine->current_tau_s_ms();
    dropped += final_m.network_dropped_messages;
    ignored += final_m.replication_ignored_batches;
    std::map<std::pair<int, int>, uint64_t> sums;
    convergence += Fmt("e%d: ", e);
    converged &= Converged(*engine, &sums, &convergence);
    const int nodes = engine->options().cluster.nodes();
    c.engine.reset();  // frees the cluster's tables before recovery
    if (spec->durable) {
      CheckRecovery(*c.workload, partitions, nodes, log_dir, sums, e, tr,
                    &checks);
    }
    if (e + 1 < episodes) TearDown(&c);
  }
  d.direct = sink.TakeWindows();
  AddCheck(&checks, "direct requests completed", direct_idle,
           Fmt("submitted=%" PRIu64 " completed=%" PRIu64, sink.submitted(),
               sink.completed()));
  if (spec->open_loop) {
    CheckAccounting(&checks, "client", d.client);
    AddCheck(&checks, "server frames", bad_frames == 0 && ring_overflow == 0,
             Fmt("bad_frames=%" PRIu64 " ring_overflow=%" PRIu64, bad_frames,
                 ring_overflow));
  }
  CheckAccounting(&checks, "direct", d.direct);
  AddCheck(&checks, "network and replication drops",
           dropped == 0 && ignored == 0,
           Fmt("network_dropped_messages=%" PRIu64
               " replication_ignored_batches=%" PRIu64,
               dropped, ignored));
  AddCheck(&checks, "replica convergence", converged, convergence);

  // --- metrics ---
  MetricMap metrics = EndToEnd(d, WindowSet(d.sched, false), d.setups_untraced);
  metrics["cluster_rss_mb"] = Metric{cluster_rss_mb, "MB", 1, {}};
  // attempted/failed over the measured windows.  Open loop: every offered
  // request.  Closed loop: every transaction the engine ran (the probes
  // among them), plus probes that never completed.
  uint64_t attempted = 0, failed = 0;
  for (int w = 1; w <= d.sched.total; ++w) {
    const size_t i = static_cast<size_t>(w);
    for (int cls = 0; cls < kClasses; ++cls) {
      const ClassCounts& dc = d.direct[i].counts[cls];
      if (spec->open_loop) {
        const ClassCounts& cc = d.client[i].counts[cls];
        attempted += cc.offered + dc.offered;
        failed += cc.failed() + dc.failed();
      } else {
        failed += dc.failed();
      }
    }
    if (!spec->open_loop) {
      const star::Metrics& m0 = d.snap_begin[i].m;
      const star::Metrics& m1 = d.snap_end[i].m;
      attempted += (m1.committed - m0.committed) + (m1.aborted - m0.aborted);
      failed += m1.aborted - m0.aborted;
    }
  }

  if (a.trace) {
    for (const LayerName& l : kLayerMetrics) {
      metrics[l.name] = Metric{0, l.unit, 0, {}};
    }
    std::vector<int> traced = WindowSet(d.sched, true);
    MetricMap t = EndToEnd(d, traced, d.setups_traced);
    for (const LayerName& l : kOverheadOf) {
      double base = metrics.count(l.name) ? metrics[l.name].value : 0.0;
      double with = t.count(l.name) ? t[l.name].value : 0.0;
      uint64_t n = t.count(l.name) ? t[l.name].samples : 0;
      metrics[std::string("trace.") + l.name] =
          Metric{with - base, l.unit, n, {}};
    }
    PerModule(d, traced, &metrics);
    metrics["core.tau_p_ms"].value = tau_p;
    metrics["core.tau_s_ms"].value = tau_s;
    metrics["net.dropped_msgs"].value = static_cast<double>(dropped);

    LayerInputs in;
    in.workload = c.workload.get();
    in.partitions = partitions;
    in.seed = a.seed;
    in.rep_flush_bytes = star::ClusterConfig().rep_flush_bytes;
    in.scratch_dir = a.out_dir + "/drivers";
    std::string detail;
    bool ok = RunLayerDrivers(in, &tracer, &metrics, &detail);
    AddCheck(&checks, "driver wal recovery", ok, detail);

    std::string spans = a.out_dir + "/spans.csv";
    std::string timeline = a.out_dir + "/timeline.csv";
    bool wrote =
        tracer.WriteCsv(spans) && WriteTimelineCsv(timeline, d.timeline);
    AddCheck(&checks, "trace written", wrote,
             Fmt("%zu spans, %zu timeline points", tracer.size(),
                 d.timeline.size()));
  }
  TearDown(&c);

  // --- report ---
  std::printf("end-to-end (%zu untraced windows of %.2f s, %d episodes)\n",
              WindowSet(d.sched, false).size(),
              static_cast<double>(d.sched.window_ns) / 1e9, episodes);
  for (const auto& [name, m] : metrics) {
    if (name.find('.') == std::string::npos) PrintMetric(name, m);
  }
  if (a.trace) {
    std::printf("per-module (traced windows and layer drivers)\n");
    for (const LayerName& l : kLayerMetrics) {
      PrintMetric(l.name, metrics[l.name]);
    }
    std::printf("tracing overhead (traced minus untraced)\n");
    for (const LayerName& l : kOverheadOf) {
      std::string n = std::string("trace.") + l.name;
      PrintMetric(n, metrics[n]);
    }
    std::printf("trace files: %s/spans.csv %s/timeline.csv\n",
                a.out_dir.c_str(), a.out_dir.c_str());
  }
  bool correct = true;
  std::printf("checks\n");
  for (const Check& ch : checks) {
    correct &= ch.ok;
    std::printf("  %-4s %-32s %s\n", ch.ok ? "ok" : "FAIL", ch.name.c_str(),
                ch.detail.c_str());
  }
  std::printf("attempted=%" PRIu64 " failed=%" PRIu64 "\n", attempted, failed);
  std::fflush(stdout);
  if (!WriteResult(a.result, a, fingerprint, checks, attempted, failed,
                   metrics)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.result.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR --result FILE [--commit C] "
                 "[--source-hash H]\n");
    return 2;
  }
  return perfbench::Run(a);
}
