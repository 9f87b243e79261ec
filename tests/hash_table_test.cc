// Split-ordered hash table (Section 3's storage structure): lookups,
// inserts and ForEach while the table grows online.

#include "storage/hash_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "storage/database.h"

namespace star {
namespace {

TEST(HashTable, GetMissingReturnsNull) {
  HashTable ht(8, 16, false);
  EXPECT_EQ(ht.Get(42), nullptr);
}

TEST(HashTable, InsertThenGet) {
  HashTable ht(8, 16, false);
  bool inserted = false;
  HashTable::Row row = ht.GetOrInsertRow(42, &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_FALSE(row.rec->IsPresent()) << "new records start absent";
  uint64_t v = 77;
  row.rec->LockSpin();
  row.rec->Store(Tid::Make(1, 1, 0), &v, 8, row.value, false);
  row.rec->UnlockWithTid(Tid::Make(1, 1, 0));

  HashTable::Row again = ht.GetRow(42);
  ASSERT_TRUE(again.valid());
  uint64_t out = 0;
  again.ReadStable(&out);
  EXPECT_EQ(out, 77u);
}

TEST(HashTable, PointerStabilityAcrossGrowth) {
  HashTable ht(16, 4, false);  // deliberately undersized buckets
  std::vector<Record*> ptrs;
  for (uint64_t k = 0; k < 5000; ++k) {
    ptrs.push_back(ht.GetOrInsert(k));
  }
  for (uint64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(ht.Get(k), ptrs[k]) << "record pointers must never move";
  }
  EXPECT_EQ(ht.size(), 5000u);
}

TEST(HashTable, ConcurrentInsertNoDuplicatesNoLoss) {
  HashTable ht(8, 1024, false);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 20000;
  std::atomic<uint64_t> created{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (uint64_t k = 0; k < kKeys; ++k) {
        bool inserted = false;
        ht.GetOrInsert(k, &inserted);
        if (inserted) created.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(created.load(), kKeys) << "each key created exactly once";
  EXPECT_EQ(ht.size(), kKeys);
}

TEST(HashTable, ForEachVisitsEveryNode) {
  HashTable ht(8, 64, false);
  for (uint64_t k = 100; k < 200; ++k) ht.GetOrInsert(k);
  std::set<uint64_t> seen;
  ht.ForEach([&](uint64_t key, Record*, char*) { seen.insert(key); });
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 100u);
  EXPECT_EQ(*seen.rbegin(), 199u);
}

TEST(HashTable, GrowsPastItsSizedRows) {
  HashTable ht(8, 16, false);
  const size_t initial = ht.bucket_count();
  for (uint64_t k = 0; k < 10000; ++k) ht.GetOrInsert(k);
  EXPECT_GE(ht.bucket_count(), 10000u) << "load factor stays at most 1";
  EXPECT_GE(ht.bucket_count(), initial * 64);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(ht.Get(k), nullptr) << k;
  }
  EXPECT_EQ(ht.Get(10000), nullptr);
}

// Writers insert through several doublings while readers Get keys that
// were inserted before their Get began: no false miss, and every lookup
// returns the one record of its key.
TEST(HashTable, ConcurrentGetDuringGrowthNeverMissesInsertedKeys) {
  HashTable ht(8, 64, false);
  const size_t initial = ht.bucket_count();
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 60000;
  // Writer w inserts keys w, w + kWriters, ...; done[w] counts its inserts.
  std::atomic<uint64_t> done[kWriters] = {};
  std::vector<std::atomic<Record*>> recs(kWriters * kPerWriter);
  std::atomic<int> writers_left{kWriters};
  std::atomic<uint64_t> misses{0}, mismatches{0}, lookups{0};
  std::vector<std::thread> ts;
  for (int w = 0; w < kWriters; ++w) {
    ts.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        uint64_t key = i * kWriters + w;
        recs[key].store(ht.GetOrInsert(key), std::memory_order_relaxed);
        done[w].store(i + 1, std::memory_order_release);
      }
      writers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    ts.emplace_back([&, r] {
      std::mt19937_64 rng(r + 1);
      while (writers_left.load(std::memory_order_acquire) > 0) {
        int w = static_cast<int>(rng() % kWriters);
        uint64_t n = done[w].load(std::memory_order_acquire);
        if (n == 0) continue;
        uint64_t key = (rng() % n) * kWriters + static_cast<uint64_t>(w);
        Record* got = ht.Get(key);
        lookups.fetch_add(1, std::memory_order_relaxed);
        if (got == nullptr) {
          misses.fetch_add(1, std::memory_order_relaxed);
        } else if (got != recs[key].load(std::memory_order_relaxed)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(misses.load(), 0u) << "of " << lookups.load() << " lookups";
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(lookups.load(), 0u);
  EXPECT_GE(ht.bucket_count(), initial * 512) << "several doublings ran";
  EXPECT_EQ(ht.size(), kWriters * kPerWriter);
  for (uint64_t k = 0; k < kWriters * kPerWriter; ++k) {
    ASSERT_EQ(ht.Get(k), recs[k].load()) << k;
  }
}

// ForEach while another thread inserts through several doublings visits
// every key present when it started exactly once.  XOR of the visited
// keys' hashes: a missed key leaves its hash in, a duplicate visit cancels
// it out; either way the sum differs.
TEST(HashTable, ForEachDuringGrowthVisitsEveryOldKeyExactlyOnce) {
  HashTable ht(8, 16, false);
  constexpr uint64_t kOld = 20000;
  constexpr uint64_t kNew = 300000;
  uint64_t expect = 0;
  for (uint64_t k = 0; k < kOld; ++k) {
    ht.GetOrInsert(k);
    expect ^= HashKey(k);
  }
  const size_t before = ht.bucket_count();
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (uint64_t k = kOld; k < kOld + kNew; ++k) ht.GetOrInsert(k);
    writing.store(false, std::memory_order_release);
  });
  int walks = 0;
  do {
    uint64_t sum = 0;
    uint64_t old_visits = 0;
    ht.ForEach([&](uint64_t key, Record*, char*) {
      if (key < kOld) {
        sum ^= HashKey(key);
        ++old_visits;
      }
    });
    EXPECT_EQ(sum, expect) << "walk " << walks;
    EXPECT_EQ(old_visits, kOld) << "walk " << walks;
    ++walks;
  } while (writing.load(std::memory_order_acquire));
  writer.join();
  EXPECT_GE(ht.bucket_count(), before * 8) << "the walks overlapped growth";
  uint64_t all = 0;
  ht.ForEach([&](uint64_t, Record*, char*) { ++all; });
  EXPECT_EQ(all, kOld + kNew);
}

// Keys whose hashes agree in their low 20 bits share a list and an order
// tag in a table of 16 sized buckets (4 bucket bits + 16 tag bits), so
// walks must read such elements and compare whole split keys.  Groups of
// them, inserted among other keys through many doublings, stay distinct.
TEST(HashTable, KeysWithEqualOrderTagsStayDistinct) {
  std::vector<std::pair<uint64_t, uint64_t>> by_low;
  for (uint64_t k = 0; k < (1u << 18); ++k) {
    by_low.emplace_back(HashKey(k) & ((1u << 20) - 1), k);
  }
  std::sort(by_low.begin(), by_low.end());
  std::vector<uint64_t> ties;
  for (size_t i = 0; i + 2 < by_low.size() && ties.size() < 600;) {
    size_t j = i;
    while (j < by_low.size() && by_low[j].first == by_low[i].first) ++j;
    if (j - i >= 3) {
      for (size_t t = i; t < j; ++t) ties.push_back(by_low[t].second);
    }
    i = j;
  }
  ASSERT_GE(ties.size(), 300u);
  std::shuffle(ties.begin(), ties.end(), std::mt19937_64(3));

  HashTable ht(8, 0, false);
  ASSERT_EQ(ht.bucket_count(), 16u);
  std::vector<Record*> recs;
  uint64_t other = 1u << 18;
  for (uint64_t k : ties) {
    recs.push_back(ht.GetOrInsert(k));
    for (int i = 0; i < 100; ++i) ht.GetOrInsert(other++);
  }
  ASSERT_GE(ht.bucket_count(), 16u << 10) << "grew through doublings";
  for (size_t i = 0; i < ties.size(); ++i) {
    bool inserted = true;
    EXPECT_EQ(ht.GetOrInsert(ties[i], &inserted), recs[i]) << ties[i];
    EXPECT_FALSE(inserted) << ties[i];
    EXPECT_EQ(ht.Get(ties[i]), recs[i]) << ties[i];
  }
  EXPECT_EQ(ht.size(), ties.size() + (other - (1u << 18)));
}

// The replay pipeline's cursors: a LoadHead cursor taken before a doubling
// still finds every key present when it was taken; for a key inserted
// after, it may miss, and GetOrInsertRow then resolves the existing record.
TEST(HashTable, PipelinedCursorSurvivesDoubling) {
  HashTable ht(8, 16, false);
  std::vector<Record*> recs;
  uint64_t next = 0;
  // Fill to the brink of a doubling.
  while (ht.size() < ht.bucket_count()) recs.push_back(ht.GetOrInsert(next++));
  const uint64_t present = next;
  const size_t before = ht.bucket_count();
  std::vector<const void*> cursors;
  const uint64_t probed = present + 4000;
  for (uint64_t k = 0; k < probed; ++k) {
    ht.PrefetchBucket(k);
    cursors.push_back(ht.LoadHead(k));
  }
  while (next < probed) recs.push_back(ht.GetOrInsert(next++));
  ASSERT_GE(ht.bucket_count(), before * 4) << "cursors predate doublings";
  for (uint64_t k = 0; k < probed; ++k) {
    HashTable::Row row = ht.FindFrom(cursors[k], k);
    if (k < present) {
      EXPECT_EQ(row.rec, recs[k]) << "key " << k << " present at LoadHead";
      continue;
    }
    if (row.rec == nullptr) {
      bool inserted = true;
      row = ht.GetOrInsertRow(k, &inserted);
      EXPECT_FALSE(inserted) << k;
    }
    EXPECT_EQ(row.rec, recs[k]) << k;
  }
  EXPECT_EQ(ht.size(), probed);
}

// An ordered table grown through several doublings (keys inserted in a
// shuffled order): range scans return exactly the keys Get finds, in
// ascending order, each with the record Get returns.
TEST(HashTable, OrderedScansAgreeWithGetAcrossGrowth) {
  HashTable ht(8, 16, false, /*ordered=*/true);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 30000; ++k) keys.push_back(k * 3 + 1);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(7));
  for (uint64_t k : keys) ht.GetOrInsert(k);
  ASSERT_GE(ht.bucket_count(), 30000u);
  std::vector<uint64_t> scanned;
  ht.index()->Scan(0, ~0ull, [&](uint64_t key, Record* rec) {
    EXPECT_EQ(rec, ht.Get(key)) << key;
    scanned.push_back(key);
    return true;
  });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(scanned, keys);
  uint64_t in_range = 0;
  ht.index()->Scan(3000, 6000, [&](uint64_t key, Record* rec) {
    EXPECT_EQ(rec, ht.Get(key));
    ++in_range;
    return true;
  });
  EXPECT_EQ(in_range, 1000u);  // keys 3001, 3004, ..., 5998
}

TEST(Database, PartitionPresenceHonoursPlacement) {
  std::vector<TableSchema> schemas{{"t", 8, 16}};
  Database db(schemas, 4, {1, 3}, false);
  EXPECT_FALSE(db.HasPartition(0));
  EXPECT_TRUE(db.HasPartition(1));
  EXPECT_EQ(db.table(0, 0), nullptr);
  EXPECT_NE(db.table(0, 1), nullptr);
}

TEST(Database, LoadInstallsVisibleRecord) {
  std::vector<TableSchema> schemas{{"t", 8, 16}};
  Database db(schemas, 1, {0}, false);
  uint64_t v = 99;
  db.Load(0, 0, 7, &v);
  HashTable::Row row = db.table(0, 0)->GetRow(7);
  ASSERT_TRUE(row.valid());
  EXPECT_TRUE(row.rec->IsPresent());
  uint64_t out = 0;
  row.ReadStable(&out);
  EXPECT_EQ(out, 99u);
  EXPECT_EQ(row.rec->LoadTid(), Database::kLoadTid);
}

TEST(Database, RevertEpochAcrossTables) {
  std::vector<TableSchema> schemas{{"a", 8, 16}, {"b", 8, 16}};
  Database db(schemas, 1, {0}, /*two_version=*/true);
  uint64_t v0 = 1, v1 = 2;
  db.Load(0, 0, 5, &v0);
  db.Load(1, 0, 5, &v0);
  for (int t = 0; t < 2; ++t) {
    HashTable::Row row = db.table(t, 0)->GetRow(5);
    row.rec->LockSpin();
    row.rec->Store(Tid::Make(9, 1, 0), &v1, 8, row.value, true);
    row.rec->UnlockWithTid(Tid::Make(9, 1, 0));
  }
  db.RevertEpoch(9);
  for (int t = 0; t < 2; ++t) {
    uint64_t out = 0;
    db.table(t, 0)->GetRow(5).ReadStable(&out);
    EXPECT_EQ(out, 1u) << "table " << t;
  }
}

TEST(Database, ResetStorageKeepsPointersValidAndEmpties) {
  std::vector<TableSchema> schemas{{"t", 8, 16}};
  Database db(schemas, 2, {0, 1}, false);
  uint64_t v = 5;
  db.Load(0, 0, 1, &v);
  EXPECT_EQ(db.table(0, 0)->size(), 1u);
  db.ResetStorage();
  EXPECT_TRUE(db.HasPartition(0));
  EXPECT_EQ(db.table(0, 0)->size(), 0u);
}

}  // namespace
}  // namespace star
