#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

namespace perfbench {

double Samples::QuantileMs(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<uint64_t> s = v_;
  size_t rank = static_cast<size_t>(q * static_cast<double>(s.size()));
  if (rank >= s.size()) rank = s.size() - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(rank),
                   s.end());
  return static_cast<double>(s[rank]) / 1e6;
}

double Samples::MaxMs() const {
  if (v_.empty()) return 0.0;
  return static_cast<double>(*std::max_element(v_.begin(), v_.end())) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double RssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double HeapMb() {
  struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return t;
  t.steal = v[7];
  for (unsigned long long x : v) t.total += x;
  return t;
}

double DirSizeMb(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t bytes = 0;
  // Loggers create and delete files while this walks; any entry that
  // vanishes mid-walk is simply skipped.
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      uint64_t sz = it->file_size(fec);
      if (!fec) bytes += sz;
    }
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace perfbench
