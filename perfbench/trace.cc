#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace perfbench {

void Tracer::Merge(std::vector<Span>&& spans) {
  std::lock_guard<std::mutex> g(mu_);
  if (spans_.empty()) {
    spans_ = std::move(spans);
  } else {
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  spans.clear();
}

uint64_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                        uint64_t parent, uint64_t request) {
  Span s;
  s.id = NextId();
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.name = name;
  std::lock_guard<std::mutex> g(mu_);
  spans_.push_back(s);
  return s.id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> g(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> g(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%" PRIu64
                    ",%" PRIu64 "\n",
                 s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns);
  }
  return std::fclose(f) == 0;
}

bool WriteTimelineCsv(const std::string& path,
                      const std::vector<TimelinePoint>& points) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "window,t_ns,epoch,fence_count,fence_stop_ns,fence_drain_ns,"
               "durable_epoch,inflight,est_wait_ns,queue_depth,committed,"
               "wal_bytes,wal_fsyncs,checkpoints,checkpoint_bytes\n");
  for (const TimelinePoint& p : points) {
    std::fprintf(f,
                 "%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                 p.window, p.t_ns, p.epoch, p.fence_count, p.fence_stop_ns,
                 p.fence_drain_ns, p.durable_epoch, p.inflight, p.est_wait_ns,
                 p.queue_depth, p.committed, p.wal_bytes, p.wal_fsyncs,
                 p.checkpoints, p.checkpoint_bytes);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
