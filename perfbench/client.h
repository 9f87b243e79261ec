#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The benchmark's load sources.
//
//  * OpenLoopClient speaks serve/protocol.h to a ServeServer over TCP
//    loopback.  Requests arrive on a Poisson clock regardless of how the
//    server is doing; each request's latency runs from its scheduled
//    arrival to the moment the bytes of its result frame are read.
//  * DirectSink submits requests straight to StarEngine::SubmitExternal
//    and records their scheduled-arrival -> `done` latency.  The traced run
//    diverts a sampled share of the client's arrivals through it, and the
//    closed-loop workload uses it for its latency probes.
//
// Both attribute every request to the measurement window its scheduled
// arrival falls in (Schedule), and both treat a refusal the protocol calls
// retryable — a shed, a conflict abort, a bounced submit — as a user would:
// they send the request again after a jittered backoff (the shed's own
// queue-wait hint, clamped and doubled per attempt, as serve::LoadGenOptions
// does), for as long as the next send falls within kRetryBudgetNs of the
// scheduled arrival.  The latency still runs from that arrival, so a
// retry's wait is in it; only the last answer is the request's outcome,
// and every re-send is counted (`resent`).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/engine.h"
#include "serve/registry.h"
#include "trace.h"

namespace perfbench {

enum RequestClass : int { kRead = 0, kWrite = 1, kCross = 2, kClasses = 3 };
const char* ClassName(int cls);

/// A refused request is sent again while the next send falls within this
/// long of its scheduled arrival: a user who retries for five seconds.
constexpr uint64_t kRetryBudgetNs = 5'000'000'000ull;

/// Outcome counts of one request class.  Each request has one outcome, its
/// last answer: offered = ok + rollback + aborted + shed + retry + bad +
/// lost must hold after a run.  A rollback is an application-requested
/// abort (TPC-C's spec-mandated invalid-item NewOrder): a correct outcome,
/// neither a failure nor a latency sample.  `resent` and `shed_replies`
/// count sends and answers, not requests.
struct ClassCounts {
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t rollback = 0;
  uint64_t aborted = 0;
  uint64_t shed = 0;
  uint64_t retry = 0;
  uint64_t bad = 0;
  uint64_t lost = 0;
  uint64_t resent = 0;        // sends after the first
  uint64_t shed_replies = 0;  // kShed answers, retried or not

  uint64_t failed() const { return aborted + shed + retry + bad + lost; }
  uint64_t resolved() const { return ok + rollback + failed(); }
  void Add(const ClassCounts& o);
};

/// What happened in one measurement window.
struct WindowStats {
  ClassCounts counts[kClasses];
  Samples latency[kClasses];  // ok requests: scheduled arrival -> result
  Samples late;               // send (or submit) time - scheduled arrival
  void Add(const WindowStats& o);
};

/// Time layout of one episode of a run: a warm-up (window 0), then
/// `windows` measured windows of equal length, numbered `first` ..
/// `first + windows - 1` among the run's `total` windows.  In a traced run
/// the even-numbered windows are traced and the odd ones are not, so both
/// halves see the same cluster state and drift.
struct Schedule {
  uint64_t start_ns = 0;
  uint64_t warmup_ns = 0;
  uint64_t window_ns = 0;
  int first = 1;
  int windows = 0;
  int total = 0;
  bool trace = false;

  uint64_t measure_start_ns() const { return start_ns + warmup_ns; }
  uint64_t end_ns() const {
    return measure_start_ns() + window_ns * static_cast<uint64_t>(windows);
  }
  /// Start of measured window w (first .. first + windows - 1).
  uint64_t WindowStart(int w) const {
    return measure_start_ns() + window_ns * static_cast<uint64_t>(w - first);
  }
  /// 0 = warm-up, first .. first + windows - 1 = measured, -1 = after the
  /// end.
  int WindowOf(uint64_t t) const;
  bool Traced(int w) const { return trace && w > 0 && w % 2 == 0; }
};

/// Requests submitted straight to the engine.  Completion callbacks run on
/// engine threads; the sink must outlive StarEngine::Stop().
class DirectSink {
 public:
  DirectSink(const Schedule* schedule, Tracer* tracer);

  DirectSink(const DirectSink&) = delete;
  DirectSink& operator=(const DirectSink&) = delete;

  /// Builds `proc` from the registry and submits it.  A refused submit or
  /// a conflict abort is sent again by ServiceRetries after a backoff.
  void Submit(star::StarEngine* engine,
              const star::serve::ProcRegistry& registry, uint32_t proc,
              int cls, uint64_t seed, int partition, uint64_t sched_ns,
              bool wait_durable);

  /// Poisson probe stream (the closed-loop workload's latency source):
  /// `rate` requests/s split between kSingle and kCross by `cross_share`,
  /// issued on the calling thread until the schedule ends.
  void RunProbes(star::StarEngine* engine,
                 const star::serve::ProcRegistry& registry, double rate,
                 double cross_share, int partitions, uint64_t seed);

  /// Re-submits every request whose retry backoff has run out.  Called by
  /// the threads that submit, so no engine thread ever waits on a backoff.
  void ServiceRetries(star::StarEngine* engine);

  /// Services retries until every submitted request has completed or
  /// `timeout_s` passes.  Returns true when none is outstanding.
  bool WaitIdle(star::StarEngine* engine, double timeout_s);

  /// Per-window results (index = Schedule window, 0 .. total); call after
  /// the engine has stopped.
  std::vector<WindowStats> TakeWindows();
  uint64_t submitted() const { return submitted_.load(); }
  uint64_t completed() const { return completed_.load(); }

 private:
  static void OnDone(star::StarEngine::ExternalTxn* t, star::TxnStatus status,
                     uint64_t epoch);
  /// Queues `t` for another send after its backoff; false when that send
  /// would fall outside kRetryBudgetNs.  Caller holds mu_.
  bool QueueRetryLocked(star::StarEngine::ExternalTxn* t, uint64_t now);
  /// Records the request's last answer.  Caller holds mu_.
  void FinishLocked(star::StarEngine::ExternalTxn* t, star::TxnStatus status,
                    uint64_t now);

  struct Retry {
    uint64_t due_ns;
    star::StarEngine::ExternalTxn* txn;
  };

  const Schedule* schedule_;
  Tracer* tracer_;
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> next_request_{1};
  std::mutex mu_;
  std::vector<WindowStats> windows_;  // guarded by mu_
  std::vector<Span> spans_;           // guarded by mu_
  std::vector<Retry> retries_;        // guarded by mu_
};

struct ClientOptions {
  uint16_t port = 0;
  int threads = 2;
  int conns_per_thread = 2;
  double rate = 1000.0;       // offered requests/s, Poisson
  double read_share = 0.5;    // of all arrivals
  double cross_share = 0.05;  // of all arrivals
  bool wait_durable = false;  // kCallWaitDurable on every write
  int partitions = 1;
  uint64_t seed = 1;
  /// Traced windows only: share of arrivals submitted straight to the
  /// engine through the DirectSink instead of over the socket.
  double direct_share = 0.0;
  /// After the schedule ends, wait this long for outstanding results.
  double drain_s = 5.0;
};

class OpenLoopClient {
 public:
  OpenLoopClient(const ClientOptions& opts, star::StarEngine* engine,
                 const star::serve::ProcRegistry* registry, DirectSink* sink,
                 Tracer* tracer);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Dials every connection and completes its kHello handshake.
  bool Connect(double timeout_s);

  /// Runs the schedule on opts.threads threads and drains stragglers;
  /// blocks until done.
  void Run(const Schedule& schedule);

  /// Per-window results (index = Schedule window, 0 .. total), summed over
  /// threads.
  const std::vector<WindowStats>& windows() const { return windows_; }

  struct Conn;

 private:
  void ThreadMain(int tid, const Schedule& schedule,
                  std::vector<WindowStats>* out);

  ClientOptions opts_;
  star::StarEngine* engine_;
  const star::serve::ProcRegistry* registry_;
  DirectSink* sink_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<WindowStats> windows_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
