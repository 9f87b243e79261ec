#ifndef STAR_COMMON_STATS_H_
#define STAR_COMMON_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/histogram.h"

namespace star {

/// Per-worker counters, cache-line padded so neighbouring workers do not
/// false-share.  Workers increment their own slot without synchronization;
/// readers aggregate with relaxed loads (benchmark snapshots tolerate a few
/// in-flight increments).
struct alignas(64) WorkerStats {
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};          // concurrency-control aborts
  std::atomic<uint64_t> aborted_user{0};     // application-requested aborts
  std::atomic<uint64_t> single_partition{0};
  std::atomic<uint64_t> cross_partition{0};
  Histogram latency;  // written only by the owning worker / release thread
  /// Set by a cross-thread ResetStats, consumed by the owning worker before
  /// its next latency write — the histogram stays single-writer.
  std::atomic<bool> latency_reset_pending{false};

  /// Cross-thread-safe reset request: counters are zeroed directly (they
  /// are atomics), the latency histogram is reset by its owning worker at
  /// the next MaybeResetLatency().  Engines whose workers are stopped may
  /// follow up with a direct `latency.Reset()`.
  void Reset() {
    committed.store(0, std::memory_order_relaxed);
    aborted.store(0, std::memory_order_relaxed);
    aborted_user.store(0, std::memory_order_relaxed);
    single_partition.store(0, std::memory_order_relaxed);
    cross_partition.store(0, std::memory_order_relaxed);
    latency_reset_pending.store(true, std::memory_order_release);
  }

  /// Owning-worker side of Reset(); call before recording latency.
  void MaybeResetLatency() {
    if (latency_reset_pending.exchange(false, std::memory_order_acq_rel)) {
      latency.Reset();
    }
  }
};

/// Aggregated snapshot returned by every engine.
struct Metrics {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t aborted_user = 0;
  uint64_t single_partition = 0;
  uint64_t cross_partition = 0;
  double seconds = 0;
  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;
  /// Fail-stop drop accounting surfaced from the transport: messages the
  /// substrate refused (down peer, dead link, over-cap backlog).  Nonzero
  /// values outside failure experiments indicate a sick cluster.
  uint64_t network_dropped_bytes = 0;
  uint64_t network_dropped_messages = 0;
  /// Replication batches a node received but deliberately ignored because
  /// their source was marked failed (Section 4.5.2: healthy nodes "safely
  /// ignore all replication messages from failed nodes").  Like the drop
  /// counters, nonzero outside failure experiments flags a sick cluster —
  /// previously these batches vanished without a trace.
  uint64_t replication_ignored_batches = 0;
  /// Replica-served read-only transactions (cc/snapshot.h).  Kept separate
  /// from `committed`/`aborted`: replica reads ride a different execution
  /// path with different semantics, and folding them in would corrupt every
  /// existing write-throughput figure.
  uint64_t replica_reads = 0;           // successfully validated read txns
  uint64_t replica_read_aborts = 0;     // gave up (missing record/user abort)
  uint64_t replica_read_conflicts = 0;  // snapshot retries (replay in flight)
  uint64_t replica_read_keys = 0;       // read-set keys validated
  /// Sum over committed replica reads of (node epoch - pinned watermark):
  /// divide by replica_reads for the mean staleness in epochs.
  uint64_t replica_read_lag_epochs = 0;
  /// Durability (wal/logger.h).  durable_epoch is the cluster durable epoch
  /// E_d — every transaction with epoch <= E_d is fsynced on every healthy
  /// node; the byte/fsync/batch counters aggregate the logger fleet; and
  /// the checkpoint counters aggregate the incremental checkpointers.  All
  /// zero when durable logging is off.  rejoin_fetch_bytes is what a
  /// rejoining node streamed from donors (O(delta) with a recovered base,
  /// O(table) without); rejoin_full_bytes is what full snapshots of the
  /// same tables would have streamed at the same moment.
  uint64_t durable_epoch = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_batches = 0;
  uint64_t wal_epoch_markers = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_entries = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t rejoin_fetch_bytes = 0;
  uint64_t rejoin_full_bytes = 0;
  Histogram latency;

  double Tps() const { return seconds > 0 ? committed / seconds : 0.0; }
  double ReplicaReadTps() const {
    return seconds > 0 ? replica_reads / seconds : 0.0;
  }
  double ReplicaReadLagEpochs() const {
    return replica_reads == 0
               ? 0.0
               : static_cast<double>(replica_read_lag_epochs) / replica_reads;
  }
  double ReplicaReadConflictRate() const {
    uint64_t attempts = replica_reads + replica_read_conflicts;
    return attempts == 0
               ? 0.0
               : static_cast<double>(replica_read_conflicts) / attempts;
  }
  double AbortRate() const {
    uint64_t attempts = committed + aborted;
    return attempts == 0 ? 0.0 : static_cast<double>(aborted) / attempts;
  }
  double BytesPerCommit() const {
    return committed == 0 ? 0.0
                          : static_cast<double>(network_bytes) / committed;
  }
};

}  // namespace star

#endif  // STAR_COMMON_STATS_H_
