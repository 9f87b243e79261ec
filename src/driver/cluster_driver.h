#ifndef STAR_DRIVER_CLUSTER_DRIVER_H_
#define STAR_DRIVER_CLUSTER_DRIVER_H_

// Multi-process STAR deployment driver: one coordinator process plus one
// process per node, all over localhost TCP.  Used by the star_node binary
// (and examples/tpcc_cluster --multiprocess) and by the CI smoke test.
//
// Process model: the launcher fork()s each role BEFORE any engine threads
// exist, so children start from a clean single-threaded image and every
// process constructs the engine from an identical StarOptions + workload
// spec (determinism is what lets each process compute the same placement
// and populate the same initial data).  Failure injection is a real
// SIGKILL; rejoin forks a genuinely fresh process that re-admits itself via
// kRejoinRequest and re-fetches its partitions over snapshot RPCs.

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace star::driver {

struct ClusterRunSpec {
  StarOptions base;            // cluster shape; transport forced to kTcp
  std::string workload = "tpcc";  // "tpcc" | "ycsb"
  double seconds = 5.0;        // coordinator measurement window
  int kill_node = -1;          // SIGKILL this node process ...
  double kill_after_s = 0;     // ... this long after launch (0 = never)
  double rejoin_after_s = 0;   // fork a fresh rejoin process at this time
  bool verbose = true;
};

/// Constructs the workload every process agrees on.  Scaled-down TPC-C /
/// YCSB shapes so population stays in the hundreds of milliseconds.
inline std::unique_ptr<Workload> MakeClusterWorkload(
    const std::string& name) {
  if (name == "ycsb") {
    YcsbOptions o;
    o.rows_per_partition = 5'000;
    return std::make_unique<YcsbWorkload>(o);
  }
  TpccOptions o;
  o.customers_per_district = 100;
  o.items = 1000;
  return std::make_unique<TpccWorkload>(o);
}

/// Picks a base port with `count` consecutive free TCP ports on localhost
/// (bind-probe, then release; the tiny TOCTOU window is acceptable for a
/// test driver).
inline int PickFreeBasePort(int count) {
  unsigned seed = static_cast<unsigned>(getpid()) * 2654435761u;
  for (int attempt = 0; attempt < 64; ++attempt) {
    seed = seed * 1664525u + 1013904223u;
    int base = 18000 + static_cast<int>(seed % 30000);
    std::vector<int> fds;
    bool ok = true;
    for (int i = 0; i < count && ok; ++i) {
      int fd = socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_port = htons(static_cast<uint16_t>(base + i));
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (fd < 0 || bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0) {
        ok = false;
      }
      if (fd >= 0) fds.push_back(fd);
    }
    for (int fd : fds) close(fd);
    if (ok) return base;
  }
  return 28500;  // last resort; Start() reports a bind failure if taken
}

inline StarOptions ForRole(const StarOptions& base, bool coordinator,
                           int node_id, bool rejoining) {
  StarOptions o = base;
  o.transport = net::TransportKind::kTcp;
  o.multiprocess = true;
  o.hosted_coordinator = coordinator;
  o.hosted_nodes.clear();
  if (!coordinator) o.hosted_nodes.push_back(node_id);
  o.rejoining = rejoining;
  // A rejoining node with local logs recovers from its checkpoint chain +
  // log tail first; the coordinator-driven refetch then streams only the
  // delta (records with epochs past what recovery rebuilt).
  if (rejoining && o.durable_logging) o.recover_on_start = true;
  return o;
}

/// Body of a node process: run until the coordinator's shutdown round (or a
/// generous timeout, e.g. when the coordinator itself died).
inline int RunNodeProcess(const StarOptions& base, const std::string& workload,
                          int id, bool rejoining, double seconds) {
  auto wl = MakeClusterWorkload(workload);
  StarEngine engine(ForRole(base, /*coordinator=*/false, id, rejoining), *wl);
  engine.Start();
  // The rejoin budget honours the configured knob but never shrinks below
  // the run window + slack: in this harness an admission can only arrive
  // while the coordinator process is still driving phases.
  if (rejoining &&
      !engine.RequestRejoinFromCoordinator(std::max(
          base.rejoin_timeout_ms, seconds * 1000.0 + 30'000.0))) {
    std::fprintf(stderr, "[node %d] rejoin request never acknowledged\n", id);
    engine.Stop();
    return 3;
  }
  bool served = engine.WaitForShutdown(seconds * 1000.0 + 60'000.0);
  Metrics m = engine.Stop();
  std::fprintf(stderr, "[node %d] committed=%llu cross=%llu %s\n", id,
               static_cast<unsigned long long>(m.committed),
               static_cast<unsigned long long>(m.cross_partition),
               served ? "clean shutdown" : "TIMEOUT waiting for shutdown");
  if (rejoining) {
    // O(delta) rejoin check: with a recovered base the refetch must stream
    // less than full snapshots of the same tables, taken by the donors at
    // the same moment (the snapshot path reads exactly 1.00).  A byte cap
    // would gate on host speed: a correct delta grows with the churn since
    // the recovered epoch.  STAR_REJOIN_MAX_RATIO (set by the delta-rejoin
    // ctest) turns the printed ratio into a hard gate; a rejoin that
    // fetched nothing fails it rather than passing vacuously.
    double ratio = m.rejoin_full_bytes == 0
                       ? 0.0
                       : static_cast<double>(m.rejoin_fetch_bytes) /
                             static_cast<double>(m.rejoin_full_bytes);
    std::fprintf(stderr,
                 "[node %d] rejoin_fetch_bytes=%llu rejoin_full_bytes=%llu "
                 "ratio=%.3f\n",
                 id, static_cast<unsigned long long>(m.rejoin_fetch_bytes),
                 static_cast<unsigned long long>(m.rejoin_full_bytes), ratio);
    const char* bound_env = std::getenv("STAR_REJOIN_MAX_RATIO");
    if (bound_env != nullptr) {
      double bound = std::strtod(bound_env, nullptr);
      if (m.rejoin_full_bytes == 0) {
        std::fprintf(stderr,
                     "[node %d] no rejoin fetch ran (0 full-snapshot bytes "
                     "reported); the ratio gate cannot judge it\n",
                     id);
        return 4;
      }
      if (ratio > bound) {
        std::fprintf(stderr,
                     "[node %d] fetched %llu of %llu full-snapshot bytes "
                     "(ratio %.3f > %g)\n",
                     id, static_cast<unsigned long long>(m.rejoin_fetch_bytes),
                     static_cast<unsigned long long>(m.rejoin_full_bytes),
                     ratio, bound);
        return 4;
      }
    }
  }
  return served ? 0 : 2;
}

/// Body of the coordinator process: drive phases for `seconds`, then stop —
/// which runs the final fence + shutdown round — and judge the run.
inline int RunCoordinatorProcess(const StarOptions& base,
                                 const std::string& workload, double seconds,
                                 bool verbose) {
  auto wl = MakeClusterWorkload(workload);
  StarEngine engine(ForRole(base, /*coordinator=*/true, -1, false), *wl);
  engine.Start();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(seconds * 1000)));
  engine.Stop();
  const StarEngine::ClusterSummary& s = engine.cluster_summary();
  bool ok = s.valid && s.nodes_reporting > 0 && s.committed > 0 &&
            s.cross_partition > 0 && s.converged;
  if (verbose || !ok) {  // a failing verdict always says why
    std::printf(
        "[coordinator] nodes_reporting=%d committed=%llu cross=%llu "
        "converged=%s epoch=%llu\n",
        s.nodes_reporting, static_cast<unsigned long long>(s.committed),
        static_cast<unsigned long long>(s.cross_partition),
        s.converged ? "yes" : "NO",
        static_cast<unsigned long long>(engine.epoch()));
    std::fflush(stdout);
  }
  return ok ? 0 : 1;
}

/// Forks the whole cluster, optionally kills + rejoins a node, and reaps
/// every child.  Returns 0 iff the coordinator judged the run healthy and
/// every surviving node shut down cleanly.
inline int LaunchCluster(ClusterRunSpec spec) {
  spec.base.transport = net::TransportKind::kTcp;
  int n = spec.base.cluster.nodes();
  if (spec.base.durable_logging) {
    // Fresh log directory per launch: a rejoin recovery must never read
    // WAL incarnations or checkpoint chains left by a previous run (the
    // forked children inherit the amended path).
    spec.base.log_dir += "/run_" + std::to_string(getpid());
  }
  if (spec.base.tcp_base_port == 0) {
    spec.base.tcp_base_port = PickFreeBasePort(n + 1);
  }
  if (spec.verbose) {
    std::printf(
        "[launch] %d node processes + coordinator on %s ports %d..%d "
        "(workload=%s, %.1fs)\n",
        n, spec.base.tcp_host.c_str(), spec.base.tcp_base_port,
        spec.base.tcp_base_port + n, spec.workload.c_str(), spec.seconds);
    std::fflush(stdout);
  }
  std::fflush(stderr);

  pid_t coord = fork();
  if (coord == 0) {
    _exit(RunCoordinatorProcess(spec.base, spec.workload, spec.seconds,
                                spec.verbose));
  }
  std::vector<pid_t> pids(n, -1);
  for (int i = 0; i < n; ++i) {
    pid_t p = fork();
    if (p == 0) {
      _exit(RunNodeProcess(spec.base, spec.workload, i, /*rejoining=*/false,
                           spec.seconds));
    }
    pids[i] = p;
  }

  bool killed = false;
  if (spec.kill_node >= 0 && spec.kill_node < n && spec.kill_after_s > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<int64_t>(spec.kill_after_s * 1000)));
    if (spec.verbose) {
      std::printf("[launch] SIGKILL node %d (pid %d)\n", spec.kill_node,
                  static_cast<int>(pids[spec.kill_node]));
      std::fflush(stdout);
    }
    kill(pids[spec.kill_node], SIGKILL);
    waitpid(pids[spec.kill_node], nullptr, 0);
    pids[spec.kill_node] = -1;
    killed = true;

    if (spec.rejoin_after_s > spec.kill_after_s) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int64_t>((spec.rejoin_after_s - spec.kill_after_s) *
                               1000)));
      if (spec.verbose) {
        std::printf("[launch] forking rejoin process for node %d\n",
                    spec.kill_node);
        std::fflush(stdout);
      }
      pid_t p = fork();
      if (p == 0) {
        _exit(RunNodeProcess(spec.base, spec.workload, spec.kill_node,
                             /*rejoining=*/true, spec.seconds));
      }
      pids[spec.kill_node] = p;
    }
  }

  int rc = 0;
  int status = 0;
  waitpid(coord, &status, 0);
  int coord_rc = WIFEXITED(status) ? WEXITSTATUS(status) : 100;
  if (coord_rc != 0) rc = coord_rc;
  for (int i = 0; i < n; ++i) {
    if (pids[i] < 0) continue;  // killed and not rejoined
    waitpid(pids[i], &status, 0);
    int node_rc = WIFEXITED(status) ? WEXITSTATUS(status) : 100;
    if (node_rc != 0 && rc == 0) rc = 10 + node_rc;
  }
  if (spec.verbose || rc != 0) {
    std::printf("[launch] coordinator rc=%d overall rc=%d%s\n", coord_rc, rc,
                killed ? " (survived one killed node)" : "");
    std::fflush(stdout);
  }
  if (spec.base.durable_logging) {
    // Every child is reaped, so nothing writes here any more.  A passing
    // launch deletes its WAL and checkpoints (hundreds of MB per run); a
    // failing one keeps them for the post-mortem.
    if (rc == 0) {
      std::error_code ec;
      std::filesystem::remove_all(spec.base.log_dir, ec);
    } else {
      std::fprintf(stderr, "[launch] kept durable logs in %s\n",
                   spec.base.log_dir.c_str());
    }
  }
  return rc;
}

}  // namespace star::driver

#endif  // STAR_DRIVER_CLUSTER_DRIVER_H_
