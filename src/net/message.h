#ifndef STAR_NET_MESSAGE_H_
#define STAR_NET_MESSAGE_H_

#include <cstdint>
#include <string>

namespace star::net {

/// Every message type used by any engine in the repository.  A single enum
/// keeps the fabric engine-agnostic while letting tooling print readable
/// traces.  Values are grouped by subsystem.
enum class MsgType : uint16_t {
  kInvalid = 0,

  // --- replication (STAR and all baselines) ---
  kReplicationBatch = 10,  // one-way batch of log entries
  kReplicationAck = 11,    // ack for synchronous replication

  // --- STAR phase-switching coordination (Section 4.3) ---
  kPhaseStart = 20,    // coordinator -> node: enter phase (payload: descriptor)
  kFenceStop = 21,     // coordinator -> node: stop workers, report stats
  kFenceStats = 22,    // node -> coordinator: per-destination sent counts
  kFenceExpect = 23,   // coordinator -> node: how many writes to wait for
  kFenceDrained = 24,  // node -> coordinator: replication stream drained
  kViewChange = 25,    // coordinator -> node: view broadcast (health, master)
  kShutdown = 26,      // coordinator -> node: final stats + checksum round

  // --- generic distributed transaction RPCs (Dist. OCC / Dist. S2PL) ---
  kReadRequest = 40,
  kReadResponse = 41,
  kLockRequest = 42,  // write lock (OCC commit) or read/write lock (S2PL)
  kLockResponse = 43,
  kValidateRequest = 44,
  kValidateResponse = 45,
  kInstallRequest = 46,  // apply writes + unlock on the owner
  kInstallResponse = 47,
  kUnlockRequest = 48,  // one-way lock release (abort path)

  // --- two-phase commit (synchronous replication mode, Section 7.1.3) ---
  kPrepareRequest = 60,
  kPrepareResponse = 61,
  kCommitRequest = 62,
  kCommitResponse = 63,

  // --- Calvin (Section 7.3) ---
  kCalvinBatch = 80,      // sequencer -> node: ordered batch of txn inputs
  kCalvinBatchAck = 81,   // node -> sequencer: batch fully executed
  kCalvinForward = 82,    // participant -> participant: local read results

  // --- recovery (Section 4.5.3) ---
  kSnapshotRequest = 90,   // rejoining node -> donor: {table, partition}
  kSnapshotResponse = 91,  // donor -> rejoining node: record dump
  kRejoinFetch = 92,       // coordinator -> rejoining node: start fetching
  kRejoinDone = 93,        // rejoining node -> coordinator (one-way)
  kRejoinRequest = 94,     // restarted node process -> coordinator (RPC)
  kDeltaRequest = 95,      // rejoining node -> donor: {table, partition,
                           //   since_epoch} — records changed after since
  kDeltaResponse = 96,     // donor -> rejoining node: full-snapshot byte
                           //   count, then the delta record dump

  // --- tests/examples ---
  kPing = 100,
  kPong = 101,
};

/// Marks a message as the response leg of an RPC; the io thread completes the
/// matching pending call instead of invoking a handler.
inline constexpr uint16_t kFlagResponse = 1;

/// A datagram on the transport.  `payload` is an opaque byte string
/// (engines use WriteBuffer/ReadBuffer); `deliver_at` is stamped at send
/// time by the simulated fabric's latency/bandwidth model (sim) or with the
/// receive timestamp (tcp).
///
/// Payload ownership: the buffer travels with the message.  Senders that
/// care about the allocator obtain it from the transport's PayloadPool
/// (Endpoint::AcquirePayload); after a handler runs, the receiving endpoint
/// returns whatever the handler left in `payload` to the pool, closing the
/// recycle loop.  A handler that needs the bytes beyond its own invocation
/// must move the payload out (which leaves nothing to recycle) — it must
/// never retain views into a payload it did not move.
struct Message {
  int32_t src = -1;
  int32_t dst = -1;
  MsgType type = MsgType::kInvalid;
  uint16_t flags = 0;
  uint64_t rpc_id = 0;
  uint64_t deliver_at = 0;  // ns, monotonic clock
  std::string payload;
};

}  // namespace star::net

#endif  // STAR_NET_MESSAGE_H_
