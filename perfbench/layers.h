#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Layer drivers of the traced run.  After the load, each layer is driven
// directly through its own API on inputs generated from the workload and
// seed of the run:
//
//  * storage      — populate a full-replica Database, point lookups at the
//                   keys the workload's transactions access;
//  * cc           — SiloContext executes and commits the workload's own
//                   single- and cross-partition transactions on one thread;
//  * replication  — ReplicationStream encodes those write sets into
//                   rep_flush_bytes batches, ReplicationApplier applies them
//                   to a second copy;
//  * wal          — a LoggerPool (fsync on) logs those transactions, the
//                   Checkpointer writes a base before and a delta after
//                   them, and wal::Recover rebuilds a fresh copy from the
//                   chain and the log;
//  * net          — the replication batches over a TcpTransport on
//                   loopback.

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.h"
#include "cc/workload.h"
#include "trace.h"

namespace perfbench {

struct LayerInputs {
  const star::Workload* workload = nullptr;
  int partitions = 1;
  uint64_t seed = 1;
  /// Share of the generated write transactions that are cross-partition.
  double cross_share = 0.1;
  size_t rep_flush_bytes = 8 * 1024;
  int txns = 20000;
  /// Where the wal driver writes its log and checkpoint files.
  std::string scratch_dir;
};

/// Runs every driver in order and adds its metrics to `out`.  Each driver
/// call is recorded as a span.  Returns false (with `detail`) when the
/// recovered copy does not reproduce the driven one.
bool RunLayerDrivers(const LayerInputs& in, Tracer* tracer, MetricMap* out,
                     std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
