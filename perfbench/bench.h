#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Small shared helpers of the repository benchmark: exact latency samples,
// medians, process memory and directory size probes, and the metric map the
// result file is written from.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Latency samples in nanoseconds, kept exactly (no bucketing), so a
/// percentile reads as measured rather than as a histogram bucket bound.
class Samples {
 public:
  void Add(uint64_t ns) { v_.push_back(ns); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t size() const { return v_.size(); }
  /// Nearest-rank q-quantile in milliseconds; 0 when empty.
  double QuantileMs(double q) const;
  double MaxMs() const;

 private:
  std::vector<uint64_t> v_;
};

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// One reported number: value, unit and how many samples it rests on.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::vector<double> per_window;  // latencies: the values the median is of
};
using MetricMap = std::map<std::string, Metric>;

/// Resident set size of this process, from /proc/self/statm.
double RssMb();

/// Heap bytes currently allocated (glibc mallinfo2), which unlike RSS does
/// not depend on whether freed memory was returned to the system.
double HeapMb();

/// Aggregate CPU time of the host from /proc/stat, in clock ticks.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Total size of the regular files under `dir` (0 if it does not exist).
double DirSizeMb(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
