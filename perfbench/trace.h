#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory tracing of the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer: the open-loop client's requests, requests submitted straight
// to StarEngine::SubmitExternal, and every layer-driver call.  Each span
// carries a name, start, end, parent span id and request id.  Spans stay in
// memory (one buffer per recording thread) and are written out once, after
// the measurement ends.
//
// Beside the spans, the traced run polls a timeline of engine, server and
// WAL counters at a fixed cadence (TimelinePoint).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // 0: not tied to a request
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  const char* name = "";  // static storage
};

/// Collects spans from many threads.  Each recording thread appends to its
/// own std::vector<Span> and hands it over with Merge(); ids come from one
/// atomic counter so parents can be named before their children end.
class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Moves a thread's finished buffer into the tracer.
  void Merge(std::vector<Span>&& spans);

  /// Records one span directly (low-rate callers: setup, layer drivers).
  uint64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                  uint64_t parent = 0, uint64_t request = 0);

  size_t size() const;
  /// CSV: id,parent,request,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// One poll of the timeline.
struct TimelinePoint {
  int window = 0;             // the measured window it was polled in
  uint64_t t_ns = 0;
  uint64_t epoch = 0;
  uint64_t fence_count = 0;
  uint64_t fence_stop_ns = 0;
  uint64_t fence_drain_ns = 0;
  uint64_t durable_epoch = 0;
  uint64_t inflight = 0;      // admission().inflight(); 0 without a server
  uint64_t est_wait_ns = 0;   // inflight x inter_complete_ns()
  uint64_t queue_depth = 0;   // StarEngine::ExternalDepth()
  uint64_t committed = 0;     // Snapshot() counters from here on
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
};

/// CSV with one row per TimelinePoint.
bool WriteTimelineCsv(const std::string& path,
                      const std::vector<TimelinePoint>& points);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
