#ifndef STAR_STORAGE_HASH_TABLE_H_
#define STAR_STORAGE_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/spinlock.h"
#include "common/thread_annotations.h"
#include "storage/ordered_index.h"
#include "storage/record.h"

namespace star {

/// A heap block for table-sized structures (bucket segments, node arenas).
/// A DRAM-resident table on 4 KB pages spends a large share of every lookup
/// in TLB walks — and software prefetches that miss the dTLB can be dropped,
/// which would gut the replay pipeline's prefetched apply loop.  Blocks of
/// >= 2 MB therefore try, in order:
///   1. explicit 2 MB pages (MAP_HUGETLB; needs a provisioned
///      /proc/sys/vm/nr_hugepages pool — bench harnesses reserve one),
///   2. for `zeroed` blocks, an anonymous mapping advised onto transparent
///      huge pages (the kernel zero-fills each page on first touch, so a
///      grown table pays for the pages it uses when it uses them),
///   3. a 2 MB-aligned heap block advised onto transparent huge pages,
///   4. the plain heap.
/// Small blocks stay on the regular heap (hundreds of small test tables
/// must not round up to 2 MB each).
struct TableBlock {
  enum class Kind : uint8_t { kHeap, kAligned, kMapped };

  char* p = nullptr;
  size_t bytes = 0;
  Kind kind = Kind::kHeap;

  static TableBlock Allocate(size_t bytes, bool zeroed = false) {
    constexpr size_t kHuge = size_t{2} << 20;
    TableBlock b;
    if (bytes >= kHuge) {
      size_t rounded = (bytes + kHuge - 1) & ~(kHuge - 1);
#if defined(__linux__)
      void* m = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
      if (m == MAP_FAILED && zeroed) {
        m = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (m != MAP_FAILED) madvise(m, rounded, MADV_HUGEPAGE);
      }
      if (m != MAP_FAILED) {
        b.p = static_cast<char*>(m);
        b.bytes = rounded;
        b.kind = Kind::kMapped;
        return b;
      }
#endif
      b.p = static_cast<char*>(std::aligned_alloc(kHuge, rounded));
      if (b.p != nullptr) {
        b.bytes = rounded;
        b.kind = Kind::kAligned;
#if defined(__linux__)
        madvise(b.p, rounded, MADV_HUGEPAGE);
#endif
        if (zeroed) std::memset(b.p, 0, rounded);
        return b;
      }
      // Fall through to the plain heap on aligned_alloc failure.
    }
    b.p = zeroed ? new char[bytes]() : new char[bytes];
    b.bytes = bytes;
    b.kind = Kind::kHeap;
    return b;
  }

  void Free() {
    if (p == nullptr) return;
    switch (kind) {
      case Kind::kHeap:
        delete[] p;
        break;
      case Kind::kAligned:
        std::free(p);
        break;
      case Kind::kMapped:
#if defined(__linux__)
        munmap(p, bytes);
#endif
        break;
    }
    p = nullptr;
  }
};

/// Mixes a 64-bit key (finalizer of SplitMix64); good avalanche for the
/// dense integer keys our workloads use.  A bijection (xor-shifts and odd
/// multipliers are invertible): distinct keys never share a hash.
inline uint64_t HashKey(uint64_t k) {
  k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ull;
  k = (k ^ (k >> 27)) * 0x94D049BB133111EBull;
  return k ^ (k >> 31);
}

/// Reverses the bit order of a 64-bit word.
inline uint64_t ReverseBits(uint64_t x) {
  x = ((x >> 1) & 0x5555555555555555ull) | ((x & 0x5555555555555555ull) << 1);
  x = ((x >> 2) & 0x3333333333333333ull) | ((x & 0x3333333333333333ull) << 2);
  x = ((x >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((x & 0x0F0F0F0F0F0F0F0Full) << 4);
  return __builtin_bswap64(x);
}

/// Split-ordered hash table (Shalev & Shavit, "Split-ordered lists:
/// lock-free extensible hash tables", JACM 2006) with per-bucket latches and
/// arena-allocated nodes, the primary-index structure of Section 3 ("Tables
/// in STAR are implemented as collections of hash tables").
///
/// Layout: the nodes sit on singly linked lists sorted by their split key,
/// the bit-reversed HashKey.  A bucket is a 16-byte cell on the same list,
/// sorted at its bit-reversed index, so the nodes of bucket b (hash mod
/// bucket count == b) are the run behind b's cell.  Doubling the bucket
/// count splits each bucket b into b and b + old count, whose nodes already
/// lie in two runs behind b's cell: the new bucket only needs its cell
/// spliced in between.  Cells live in a directory of doubling segments.
/// Segment 0 holds the 2^k buckets sized at construction; segment s >= 1
/// holds buckets [2^(k+s-1), 2^(k+s)).  Each segment-0 cell heads the list
/// of its bucket and of every bucket later split off it: the one
/// split-ordered list of Shalev & Shavit cut at the segment-0 cells, whose
/// links between one another no lookup would follow.
///
/// Every element starts with its link word: the next element's address,
/// bit 0 set when that element is a cell, and in the top 16 bits its order
/// tag, the 16 bits of its split key just below the top k (which pick its
/// segment-0 list).  Elements on one list share those top k bits, so a
/// walk compares tags and reads an element only when its tag ties with the
/// key's or lies below it (then the walk must pass it).  An insert thus
/// never reads the element it lands in front of, and linking a cell reads
/// only the nodes that stay in front of it.
///
/// Properties the engines rely on:
///  * Record pointers are stable for the table's lifetime (nodes are never
///    moved, relinked or freed), so transactions can stash `Record*` in
///    read/write sets and replication can target records directly.
///  * Lookups (Get and the pipelined PrefetchBucket/LoadHead/FindFrom) take
///    no latch and allocate nothing.  The list only ever gains elements,
///    each published by a release store once fully initialised, and nothing
///    is ever unlinked, so no grace period or reclamation is needed.
///  * Writers latch the cell in front of the spot they splice at: each link
///    word in the run behind a cell is written only under that cell's
///    latch.  An insert walks from its bucket's cell and moves on to the
///    next cell's latch when a cell was split off in front of its spot, so
///    it holds one latch at a time.
///  * Past load factor 1 the table adds the next segment, in O(1): its pages
///    are zero-filled on first touch, and a zero cell is an unlinked one.
///    Until a bucket's cell is linked, lookups start at its parent (the
///    index without its top bit), whose run covers the bucket's.  A cell is
///    spliced in by its bucket's first insert, or earlier by inserts that
///    link the new segment in index order, kSplitBatch cells every
///    kSplitEvery inserts, so it is fully linked an eighth of the way to
///    the next doubling.
///  * ForEach walks the lists, so it visits every node that existed when it
///    started exactly once, even while the table grows.
///  * Values are fixed-size byte arrays (`value_size`), with an optional
///    trailing backup slot of the same size for epoch revert (two-version
///    records, Section 4.5.2).
class HashTable {
 public:
  /// `expected_rows` sizes the first segment of buckets; the table grows
  /// past it online.  `two_version` reserves the backup slot in every node.
  /// `ordered` additionally maintains an OrderedIndex over the primary keys,
  /// kept in sync with the hash table by every insert path (bulk load,
  /// transactional insert materialisation, replication apply, snapshot
  /// fetch) so scans and point lookups always agree.
  HashTable(uint32_t value_size, size_t expected_rows, bool two_version,
            bool ordered = false)
      : value_size_(value_size),
        two_version_(two_version),
        node_bytes_((sizeof(NodeHeader) + sizeof(Record) +
                     static_cast<size_t>(value_size) * (two_version ? 2 : 1) +
                     15) &
                    ~size_t{15}) {
    size_t want = expected_rows + expected_rows / 2 + 16;
    int bits = kMinBucketBits;
    while ((size_t{1} << bits) < want && bits < kMaxBucketBits) ++bits;
    base_bits_ = bits;
    const size_t cap = size_t{1} << bits;
    // Unpublished object; the guard exists for the analysis.
    SpinLockGuard g(grow_mu_);
    blocks_[0] = TableBlock::Allocate(cap * sizeof(Cell));
    cells0_ = reinterpret_cast<Cell*>(CheckAddress(blocks_[0]));
    // Segment 0's cells head their (empty) lists from the start.
    for (size_t b = 0; b < cap; ++b) {
      new (&cells0_[b]) Cell();
      cells0_[b].linked.store(true, std::memory_order_relaxed);
    }
    mask_.store(cap - 1, std::memory_order_release);
    if (ordered) index_ = std::make_unique<OrderedIndex>();
  }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  ~HashTable() {
    // Cells are trivially destructible (atomics only); just release the
    // blocks.  The guards are for the analysis: no thread can race a dtor.
    {
      SpinLockGuard g(grow_mu_);
      for (TableBlock& block : blocks_) block.Free();
    }
    SpinLockGuard g(arena_mu_);
    for (TableBlock& chunk : chunks_) chunk.Free();
  }

  /// Returns the record for `key`, or nullptr if the key has never been
  /// inserted.  A present node whose Record is marked absent is returned:
  /// absence is a visibility property, existence a storage property.
  STAR_HOT_PATH Record* Get(uint64_t key) const {
    const uint64_t hash = HashKey(key);
    uintptr_t link = BucketCell(hash)->next.load(std::memory_order_acquire);
    // Most lookups hit the first element: the split key is only needed
    // past it.
    if (link != 0 && !IsCell(link) && NodeOf(link)->key == key) {
      return RecordOf(NodeOf(link));
    }
    NodeHeader* n = Walk(link, key, ReverseBits(hash));
    return n != nullptr ? RecordOf(n) : nullptr;
  }

  /// Returns the record for `key`, creating an absent-marked record if the
  /// key is new.  `*inserted` reports whether a node was created.
  Record* GetOrInsert(uint64_t key, bool* inserted = nullptr) {
    const uint64_t hash = HashKey(key);
    const uint64_t split = ReverseBits(hash);
    // Fast path: already present.
    if (NodeHeader* n = Walk(
            BucketCell(hash)->next.load(std::memory_order_acquire), key,
            split)) {
      if (inserted != nullptr) *inserted = false;
      return RecordOf(n);
    }
    bool created = false;
    Record* rec =
        Insert(LinkBucket(hash & mask_.load(std::memory_order_acquire)), key,
               split, &created);
    if (inserted != nullptr) *inserted = created;
    if (created) {
      size_t rows = size_.fetch_add(1, std::memory_order_relaxed) + 1;
      size_t mask = mask_.load(std::memory_order_acquire);
      if (rows > mask + 1) {
        Grow();
      } else if (rows % kSplitEvery == 0) {
        SplitAhead(mask);
      }
    }
    return rec;
  }

  /// Value bytes that belong to `rec` (the Record returned by Get).
  char* ValueOfRecord(Record* rec) const {
    return reinterpret_cast<char*>(rec) + sizeof(Record);
  }
  const char* ValueOfRecord(const Record* rec) const {
    return reinterpret_cast<const char*>(rec) + sizeof(Record);
  }

  /// A record with its value pointer — the unit engines keep in read/write
  /// sets.
  struct Row {
    Record* rec = nullptr;
    char* value = nullptr;
    uint32_t size = 0;

    bool valid() const { return rec != nullptr; }
    /// Consistent optimistic read; returns the observed meta word.
    uint64_t ReadStable(void* out) const {
      return rec->ReadStable(out, size, value);
    }
  };

  /// Row lookup; Row.rec == nullptr when the key was never inserted.
  STAR_HOT_PATH Row GetRow(uint64_t key) const {
    Record* rec = Get(key);
    if (rec == nullptr) return Row{};
    return Row{rec, const_cast<HashTable*>(this)->ValueOfRecord(rec),
               value_size_};
  }

  Row GetOrInsertRow(uint64_t key, bool* inserted = nullptr) {
    Record* rec = GetOrInsert(key, inserted);
    return Row{rec, ValueOfRecord(rec), value_size_};
  }

  // --- pipelined lookups (replication replay, Section 5) ---
  //
  // A lookup is a chain of dependent cache misses: bucket cell -> first
  // node -> value bytes.  The replay apply loop breaks the chain across a
  // window of entries: PrefetchBucket while decoding headers, LoadHead a
  // few entries later (issues the node-line prefetch), FindFrom when that
  // line has arrived.  Each stage only touches memory the previous stage
  // prefetched, so the misses of neighbouring entries overlap.

  /// Stage 1: prefetch the bucket cell for `key`.
  STAR_HOT_PATH void PrefetchBucket(uint64_t key) const {
    __builtin_prefetch(
        CellAt(HashKey(key) & mask_.load(std::memory_order_acquire)), 0, 1);
  }

  /// Stage 2: load the link behind the bucket's cell (the cell line should
  /// be resident by now) and prefetch the element it points to, unless its
  /// tag already places it past the key.  The returned cursor is opaque;
  /// nullptr means the list ends there.
  STAR_HOT_PATH const void* LoadHead(uint64_t key) const {
    const uint64_t hash = HashKey(key);
    uintptr_t link = BucketCell(hash)->next.load(std::memory_order_acquire);
    if (link != 0 && TagOfLink(link) <= TagOf(ReverseBits(hash))) {
      __builtin_prefetch(NodeOf(link), 0, 1);
    }
    return reinterpret_cast<const void*>(link);
  }

  /// Stage 3: walk on from a LoadHead cursor.  Row.rec == nullptr when the
  /// key is not present (the caller falls back to GetOrInsertRow).  A cursor
  /// taken before the table grew still finds every key that was present
  /// when it was taken: the list behind it only gains elements.
  STAR_HOT_PATH Row FindFrom(const void* cursor, uint64_t key) const {
    NodeHeader* n = Walk(reinterpret_cast<uintptr_t>(cursor), key,
                         ReverseBits(HashKey(key)));
    if (n == nullptr) return Row{};
    Record* rec = RecordOf(n);
    return Row{rec, const_cast<HashTable*>(this)->ValueOfRecord(rec),
               value_size_};
  }

  /// Iterates every node, list by list in split order: fn(key, record,
  /// value_bytes).  Takes no latch; safe against concurrent inserts and
  /// growth (used by the checkpointer, the snapshot and delta donors,
  /// checksums and epoch revert).  Visits every node present when the walk
  /// started exactly once; nodes inserted meanwhile may or may not be
  /// visited.
  void ForEach(
      const std::function<void(uint64_t, Record*, char*)>& fn) {
    for (size_t b = 0; (b >> base_bits_) == 0; ++b) {
      uintptr_t link = cells0_[b].next.load(std::memory_order_acquire);
      while (link != 0) {
        if (IsCell(link)) {
          link = CellOf(link)->next.load(std::memory_order_acquire);
          continue;
        }
        NodeHeader* n = NodeOf(link);
        fn(n->key, RecordOf(n), ValueOf(n));
        link = n->next.load(std::memory_order_acquire);
      }
    }
  }

  uint32_t value_size() const { return value_size_; }
  bool two_version() const { return two_version_; }
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  /// Current bucket count (a power of two; doubles as the table grows).
  size_t bucket_count() const {
    return mask_.load(std::memory_order_acquire) + 1;
  }

  /// The ordered primary-key index, or nullptr for hash-only tables.
  OrderedIndex* index() const { return index_.get(); }

 private:
  // Link word layout: bits 0-47 the next element's address (16-byte
  // aligned, bit 0 set when it is a cell), bits 48-63 its order tag.
  static constexpr uintptr_t kCellTag = 1;
  static constexpr int kTagShift = 48;
  static constexpr uintptr_t kAddrMask =
      ((uintptr_t{1} << kTagShift) - 1) & ~uintptr_t{15};
  static_assert(sizeof(uintptr_t) == 8, "link words need 64-bit pointers");

  struct NodeHeader {
    std::atomic<uintptr_t> next{0};
    uint64_t key = 0;
    // followed by: Record (16 bytes), value bytes, optional backup bytes
  };

  /// A bucket: a sentinel element of the list.  All-zero bytes are a valid
  /// unlinked cell, which is how grown segments start out.  `next` is
  /// deliberately NOT guarded by `mu`: lookups are latch-free by design.
  /// The latch serialises the writers of the run behind the cell.
  struct Cell {
    std::atomic<uintptr_t> next{0};
    SpinLock mu;
    std::atomic<bool> linked{false};
    /// High half of the cell's split key (the low half is zero: bucket
    /// indexes fit in 32 bits).  Written before the cell is linked.
    uint32_t split = 0;
  };

  static_assert(sizeof(NodeHeader) == 16, "node headers stay 16 bytes");
  static_assert(sizeof(Cell) == 16, "bucket cells stay 16 bytes");

  /// Every kSplitEvery-th insert links a batch of kSplitBatch cells: eight
  /// per insert, so the newest segment is fully linked an eighth of the way
  /// to the next doubling.  (A batch's walks overlap their misses; the
  /// sooner a segment is linked, the fewer inserts climb to a parent.)
  static constexpr size_t kSplitEvery = 8;
  static constexpr size_t kSplitBatch = 64;
  static_assert(kSplitBatch <= 256, "SplitAhead indexes a batch in 8 bits");
  static constexpr int kMinBucketBits = 4;
  static constexpr int kMaxBucketBits = 32;
  static constexpr int kMaxSegments = kMaxBucketBits - kMinBucketBits + 1;

  static bool IsCell(uintptr_t link) { return (link & kCellTag) != 0; }
  static uint64_t TagOfLink(uintptr_t link) { return link >> kTagShift; }
  static Cell* CellOf(uintptr_t link) {
    return reinterpret_cast<Cell*>(link & kAddrMask);
  }
  static NodeHeader* NodeOf(uintptr_t link) {
    return reinterpret_cast<NodeHeader*>(link & kAddrMask);
  }
  static uintptr_t LinkTo(Cell* c, uint64_t tag) {
    return reinterpret_cast<uintptr_t>(c) | kCellTag | (tag << kTagShift);
  }
  static uintptr_t LinkTo(NodeHeader* n, uint64_t tag) {
    return reinterpret_cast<uintptr_t>(n) | (tag << kTagShift);
  }
  /// The 16 bits of `split` below its top base_bits_ (at most 32).
  uint64_t TagOf(uint64_t split) const {
    return (split << base_bits_) >> kTagShift;
  }
  static uint64_t SplitKeyOf(const NodeHeader* n) {
    return ReverseBits(HashKey(n->key));
  }
  static uint64_t SplitKeyOf(const Cell* c) { return uint64_t{c->split} << 32; }
  static uint32_t SplitHigh(size_t bucket) {
    return static_cast<uint32_t>(ReverseBits(bucket) >> 32);
  }
  /// The bucket a bucket was split from: its index without the top bit.
  static size_t Parent(size_t bucket) {
    return bucket & ~(size_t{1} << (63 - __builtin_clzll(bucket)));
  }
  /// Link words keep addresses in 48 bits, which user-space addresses on
  /// x86-64 and aarch64 Linux fit.
  static char* CheckAddress(const TableBlock& block) {
    if ((reinterpret_cast<uintptr_t>(block.p + block.bytes) >> kTagShift) !=
        0) {
      std::abort();
    }
    return block.p;
  }

  static Record* RecordOf(NodeHeader* n) {
    return reinterpret_cast<Record*>(reinterpret_cast<char*>(n) +
                                     sizeof(NodeHeader));
  }
  char* ValueOf(NodeHeader* n) const {
    return reinterpret_cast<char*>(n) + sizeof(NodeHeader) + sizeof(Record);
  }

  /// The cell of bucket `b` (which must be below the bucket count).
  STAR_HOT_PATH Cell* CellAt(size_t b) const {
    if ((b >> base_bits_) == 0) return cells0_ + b;
    int top = 63 - __builtin_clzll(b);
    return segments_[top - base_bits_ + 1].load(std::memory_order_acquire) +
           (b - (size_t{1} << top));
  }

  /// Bucket resolution: the cell of `hash`'s bucket, or of its nearest
  /// linked ancestor while the bucket's own cell is not on the list yet.
  /// Segment 0 is linked from the start, so the climb ends there at worst.
  STAR_HOT_PATH Cell* BucketCell(uint64_t hash) const {
    size_t b = hash & mask_.load(std::memory_order_acquire);
    if ((b >> base_bits_) == 0) return cells0_ + b;
    Cell* c = CellAt(b);
    while (!c->linked.load(std::memory_order_acquire)) {
      b = Parent(b);
      c = CellAt(b);
    }
    return c;
  }

  /// Walks the list from `link` to `key`'s node (split key `split`);
  /// nullptr once the walk passes the key's spot or the list ends.  Cells
  /// on the way were split off in front of that spot (walk on) or end the
  /// walk.  Kept out of line so that Get, which hits the first element
  /// most of the time, stays small enough to inline.
  STAR_HOT_PATH STAR_NOINLINE NodeHeader* Walk(uintptr_t link, uint64_t key,
                                               uint64_t split) const {
    const uint64_t tag = TagOf(split);
    while (link != 0) {
      const uint64_t t = TagOfLink(link);
      if (t > tag) return nullptr;
      if (IsCell(link)) {
        const Cell* c = CellOf(link);
        if (t == tag && SplitKeyOf(c) > split) return nullptr;
        link = c->next.load(std::memory_order_acquire);
        continue;
      }
      NodeHeader* n = NodeOf(link);
      if (n->key == key) return n;
      if (t == tag && SplitKeyOf(n) > split) return nullptr;
      link = n->next.load(std::memory_order_acquire);
    }
    return nullptr;
  }

  /// Under `at`'s latch, finds the spot for an element with split key
  /// `split` in the run behind `at`: `*pred` is the link word to
  /// write and `*link` its value, the first element at or past `split` (a
  /// node equal to it holds the same key, since HashKey is a bijection).
  /// Cells sort in front of nodes with the same split key.  Returns the
  /// cell to continue from instead when a cell was split off in front of
  /// the spot: that cell's latch owns it.
  Cell* Seek(Cell* at, uint64_t split, bool for_node,
             std::atomic<uintptr_t>** pred, uintptr_t* link) const
      STAR_REQUIRES(at->mu) {
    const uint64_t tag = TagOf(split);
    *pred = &at->next;
    uintptr_t l = (*pred)->load(std::memory_order_relaxed);
    while (l != 0) {
      const uint64_t t = TagOfLink(l);
      if (t > tag) break;
      if (IsCell(l)) {
        Cell* c = CellOf(l);
        if (t == tag) {
          uint64_t key = SplitKeyOf(c);
          if (key > split || (!for_node && key == split)) break;
        }
        return c;
      }
      if (t == tag && SplitKeyOf(NodeOf(l)) >= split) break;
      *pred = &NodeOf(l)->next;
      l = (*pred)->load(std::memory_order_relaxed);
    }
    *link = l;
    return nullptr;
  }

  /// Inserts `key`'s node unless present, from the linked cell `at` in
  /// front of its spot.
  Record* Insert(Cell* at, uint64_t key, uint64_t split, bool* created) {
    const uint64_t tag = TagOf(split);
    for (;;) {
      Cell* ahead = nullptr;
      {
        SpinLockGuard g(at->mu);
        std::atomic<uintptr_t>* pred = nullptr;
        uintptr_t link = 0;
        ahead = Seek(at, split, /*for_node=*/true, &pred, &link);
        if (ahead == nullptr) {
          if (link != 0 && !IsCell(link) && TagOfLink(link) == tag &&
              NodeOf(link)->key == key) {
            return RecordOf(NodeOf(link));  // another thread won the race
          }
          NodeHeader* n = AllocateNode();
          n->key = key;
          n->next.store(link, std::memory_order_relaxed);
          Record* rec = RecordOf(n);
          rec->Init(/*absent=*/true);
          std::memset(ValueOf(n), 0, value_size_);
          // Index before publishing on the list: the record is still
          // absent, so the ordering is unobservable, but this way a key
          // reachable by Get is always reachable by Scan.
          if (index_ != nullptr) index_->Insert(key, rec);
          pred->store(LinkTo(n, tag), std::memory_order_release);
          *created = true;
          return rec;
        }
      }
      at = ahead;
    }
  }

  /// Returns bucket `b`'s cell, first splicing it (and any unlinked
  /// ancestors) onto the list, under the latch of the cell in front of it:
  /// its parent, or a bucket split off the parent closer to it.
  Cell* LinkBucket(size_t b) {
    Cell* c = CellAt(b);
    if (c->linked.load(std::memory_order_acquire)) return c;
    Cell* at = LinkBucket(Parent(b));
    const uint32_t high = SplitHigh(b);
    const uint64_t split = uint64_t{high} << 32;
    const uint64_t tag = TagOf(split);
    for (;;) {
      Cell* ahead = nullptr;
      {
        SpinLockGuard g(at->mu);
        std::atomic<uintptr_t>* pred = nullptr;
        uintptr_t link = 0;
        ahead = Seek(at, split, /*for_node=*/false, &pred, &link);
        if (ahead == nullptr) {
          if (link != LinkTo(c, tag)) {  // else another thread linked it
            c->split = high;
            c->next.store(link, std::memory_order_relaxed);
            pred->store(LinkTo(c, tag), std::memory_order_release);
            c->linked.store(true, std::memory_order_release);
          }
          return c;
        }
      }
      at = ahead;
    }
  }

  /// Links the next kSplitBatch cells of the newest segment, in index
  /// order, so lookups stop paying for unlinked buckets (see kSplitEvery).
  /// A new cell's spot lies behind the nodes of its parent's run that stay
  /// in the parent.  The batch finds every spot without a latch, advancing
  /// all walks one node per round with the next round's nodes prefetched,
  /// so the misses of a round overlap; then it splices each cell under its
  /// parent's latch if the spot is still what the walk saw.
  void SplitAhead(size_t mask) {
    if (split_next_.load(std::memory_order_relaxed) > mask) return;
    size_t first =
        split_next_.fetch_add(kSplitBatch, std::memory_order_relaxed);
    if (first > mask) return;
    const size_t n = std::min(kSplitBatch, mask + 1 - first);
    const size_t half = (mask + 1) >> 1;
    // The batch lies in the newest segment; its parents are contiguous but
    // for segment boundaries, which fall on powers of two.
    Cell* cells = CellAt(first);
    Cell* parent[kSplitBatch];
    std::atomic<uintptr_t>* pred[kSplitBatch];
    uintptr_t link[kSplitBatch];
    uint64_t split[kSplitBatch];
    uint8_t walking[kSplitBatch];  // batch indexes whose walk goes on
    size_t pending = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t p = first - half + i;
      parent[i] =
          i == 0 || (p & (p - 1)) == 0 ? CellAt(p) : parent[i - 1] + 1;
      split[i] = uint64_t{SplitHigh(first + i)} << 32;
      pred[i] = &parent[i]->next;
      link[i] = pred[i]->load(std::memory_order_acquire);
      if (Passes(link[i], split[i])) {
        walking[pending++] = static_cast<uint8_t>(i);
      }
    }
    while (pending != 0) {
      size_t still = 0;
      for (size_t w = 0; w < pending; ++w) {
        const size_t i = walking[w];
        pred[i] = &NodeOf(link[i])->next;
        link[i] = pred[i]->load(std::memory_order_acquire);
        if (Passes(link[i], split[i])) {
          walking[still++] = static_cast<uint8_t>(i);
        }
      }
      pending = still;
    }
    for (size_t i = 0; i < n; ++i) {
      Cell* c = &cells[i];
      {
        SpinLockGuard g(parent[i]->mu);
        if (c->linked.load(std::memory_order_relaxed)) continue;
        // Under an unchanged mask no cell is split off the parent in front
        // of the spot, so an unchanged link word means an unchanged spot.
        if (parent[i]->linked.load(std::memory_order_acquire) &&
            mask_.load(std::memory_order_acquire) == mask &&
            pred[i]->load(std::memory_order_relaxed) == link[i]) {
          c->split = static_cast<uint32_t>(split[i] >> 32);
          c->next.store(link[i], std::memory_order_relaxed);
          pred[i]->store(LinkTo(c, TagOf(split[i])),
                         std::memory_order_release);
          c->linked.store(true, std::memory_order_release);
          continue;
        }
      }
      LinkBucket(first + i);
    }
  }

  /// SplitAhead's step: whether a walk to split key `split` must pass the
  /// element at `link` (then prefetched here for the next round).
  bool Passes(uintptr_t link, uint64_t split) const {
    if (link == 0 || IsCell(link)) return false;
    const uint64_t t = TagOfLink(link);
    const uint64_t tag = TagOf(split);
    if (t > tag) return false;
    if (t == tag && SplitKeyOf(NodeOf(link)) >= split) return false;
    __builtin_prefetch(NodeOf(link), 0, 3);
    return true;
  }

  /// Adds the next segment of cells, doubling the bucket count.  The new
  /// cells are zero bytes, i.e. unlinked: each joins the list with its
  /// bucket's first insert or with SplitAhead.
  void Grow() {
    SpinLockGuard g(grow_mu_);
    size_t buckets = mask_.load(std::memory_order_relaxed) + 1;
    int bits = 63 - __builtin_clzll(buckets);
    if (size_.load(std::memory_order_relaxed) <= buckets ||
        bits >= kMaxBucketBits) {
      return;
    }
    int s = bits - base_bits_ + 1;
    blocks_[s] = TableBlock::Allocate(buckets * sizeof(Cell), /*zeroed=*/true);
    segments_[s].store(reinterpret_cast<Cell*>(CheckAddress(blocks_[s])),
                       std::memory_order_release);
    mask_.store(2 * buckets - 1, std::memory_order_release);
    split_next_.store(buckets, std::memory_order_relaxed);
  }

  /// Bump allocator; called with a cell latch held, guarded by its own
  /// latch because different runs share the arena.  Chunks grow from
  /// kFirstChunkBytes doubling up to kChunkBytes, so small tables stay
  /// small while big tables converge to huge-page-backed 2 MB chunks.
  NodeHeader* AllocateNode() {
    SpinLockGuard g(arena_mu_);
    if (chunks_.empty() || arena_used_ + node_bytes_ > chunks_.back().bytes) {
      size_t want = chunks_.empty() ? kFirstChunkBytes
                                    : chunks_.back().bytes * 2;
      if (want > kChunkBytes) want = kChunkBytes;
      if (want < node_bytes_) want = node_bytes_;
      chunks_.push_back(TableBlock::Allocate(want));
      CheckAddress(chunks_.back());
      arena_used_ = 0;
    }
    char* p = chunks_.back().p + arena_used_;
    arena_used_ += node_bytes_;
    return new (p) NodeHeader();
  }

  static constexpr size_t kFirstChunkBytes = 64 << 10;
  static constexpr size_t kChunkBytes = 2 << 20;

  uint32_t value_size_;
  bool two_version_;
  size_t node_bytes_;
  int base_bits_;
  /// Segment 0's cells; written once by the constructor.
  Cell* cells0_ = nullptr;
  /// Bucket count - 1; grows by doubling, published after its segment.
  std::atomic<size_t> mask_{0};
  /// segments_[s] holds the cells of segment s >= 1 (nullptr until
  /// allocated).
  std::atomic<Cell*> segments_[kMaxSegments] = {};
  /// Bumped by every insert: kept off the line lookups read.
  alignas(STAR_CACHELINE_SIZE) std::atomic<size_t> size_{0};
  /// Next cell SplitAhead links (past the mask once all are linked).
  std::atomic<size_t> split_next_{~size_t{0}};

  SpinLock grow_mu_;
  TableBlock blocks_[kMaxSegments] STAR_GUARDED_BY(grow_mu_);

  SpinLock arena_mu_;
  std::vector<TableBlock> chunks_ STAR_GUARDED_BY(arena_mu_);
  size_t arena_used_ STAR_GUARDED_BY(arena_mu_) = 0;
  std::unique_ptr<OrderedIndex> index_;
};

}  // namespace star

#endif  // STAR_STORAGE_HASH_TABLE_H_
