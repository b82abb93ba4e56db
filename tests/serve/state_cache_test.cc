// Soft-memory tiered state cache: byte caps and pinned overshoot, CLOCK
// eviction, disk-slab round trips and drops, slab truncation, the charged
// cold index, pin/lease semantics, and the eviction-storm stress test the
// ci.sh ASan leg runs with DEEPREST_STATECACHE_STRESS=1.
#include "src/serve/state_cache.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace deeprest {
namespace {

// Deterministic per-key payload so any tier round trip is checkable.
std::vector<float> PayloadFor(uint64_t key, size_t floats = 32) {
  std::vector<float> hidden(floats);
  for (size_t i = 0; i < floats; ++i) {
    hidden[i] = 0.25f * static_cast<float>(key % 97) + 0.001f * static_cast<float>(i) -
                0.5f * static_cast<float>((key + i) % 3);
  }
  return hidden;
}

void FillState(StateCache& cache, uint64_t key, size_t floats = 32) {
  StateCache::Lease lease = cache.AcquireOrCreate(key);
  ASSERT_TRUE(lease.valid());
  lease.state().hidden = PayloadFor(key, floats);
  lease.state().steps = key;
  lease.state().model_version = 1;
}

// A disk-tier config whose slab lives in the test temp dir.
StateCacheConfig DiskConfig(size_t hot_bytes, const std::string& slab_name, size_t slots) {
  StateCacheConfig config;
  config.hot_bytes = hot_bytes;
  config.slab_path = ::testing::TempDir() + slab_name;
  config.slab_slots = slots;
  return config;
}

TEST(StateCacheTest, FreshEntryIsMissThenHotHit) {
  StateCacheConfig config;
  config.hot_bytes = 1 << 20;
  StateCache cache(config);
  {
    StateCache::Lease lease = cache.AcquireOrCreate(7);
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(lease.key(), 7u);
    EXPECT_TRUE(lease.state().hidden.empty());  // fresh = warm-start marker
    lease.state().hidden = PayloadFor(7);
    lease.state().steps = 5;
  }
  {
    StateCache::Lease lease = cache.AcquireOrCreate(7);
    ASSERT_TRUE(lease.valid());
    EXPECT_EQ(lease.state().hidden, PayloadFor(7));
    EXPECT_EQ(lease.state().steps, 5u);
  }
  const StateCacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hot_hits, 1u);
  EXPECT_EQ(counters.hot_entries, 1u);
}

TEST(StateCacheTest, HotCapEvictsInClockOrderToDisk) {
  // 32 floats + overhead is ~240 bytes per entry: cap at ~6 entries.
  const StateCacheConfig config = DiskConfig(1500, "state_cache_slab_clock.bin", 64);
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());
  for (uint64_t key = 1; key <= 20; ++key) {
    FillState(cache, key);
  }
  const StateCacheCounters counters = cache.Counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_EQ(counters.spills, counters.evictions);
  EXPECT_EQ(counters.drops, 0u);
  EXPECT_LE(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_EQ(counters.cold_entries, counters.spills);
  std::remove(config.slab_path.c_str());
}

TEST(StateCacheTest, DiskSpillRoundTripsBitExact) {
  StateCacheConfig config = DiskConfig(600, "state_cache_slab_roundtrip.bin", 64);
  config.slab_slot_payload_bytes = 256;
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());
  FillState(cache, 1);
  for (uint64_t key = 2; key <= 8; ++key) {
    FillState(cache, key);
  }
  ASSERT_GT(cache.Counters().spills, 0u);
  StateCache::Lease lease = cache.AcquireOrCreate(1);
  ASSERT_TRUE(lease.valid());
  const std::vector<float> expected = PayloadFor(1);
  ASSERT_EQ(lease.state().hidden.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Raw float bits through the slab: bitwise equality, not tolerance.
    EXPECT_EQ(lease.state().hidden[i], expected[i]) << "index " << i;
  }
  EXPECT_EQ(lease.state().steps, 1u);
  EXPECT_EQ(lease.state().model_version, 1u);
  std::remove(config.slab_path.c_str());
}

TEST(StateCacheTest, TornSlabSlotFailsClosedAsMiss) {
  const StateCacheConfig config = DiskConfig(600, "state_cache_slab_torn.bin", 64);
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());
  FillState(cache, 1);
  for (uint64_t key = 2; key <= 8; ++key) {
    FillState(cache, key);
  }
  ASSERT_GT(cache.Counters().spills, 0u);
  // Corrupt every slot payload byte region: whichever slot key 1 landed in,
  // its checksum no longer matches.
  {
    FILE* file = std::fopen(config.slab_path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 4096, SEEK_SET);  // past the superblock
    std::vector<char> junk(64 * (32 + 256), '\x5a');
    std::fwrite(junk.data(), 1, junk.size(), file);
    std::fclose(file);
  }
  const uint64_t drops_before = cache.Counters().drops;
  StateCache::Lease lease = cache.AcquireOrCreate(1);
  ASSERT_TRUE(lease.valid());
  // The torn slot reads as a miss: a fresh warm-start entry, never garbage.
  EXPECT_TRUE(lease.state().hidden.empty());
  EXPECT_GT(cache.Counters().drops, drops_before);
  std::remove(config.slab_path.c_str());
}

// A crash can cut the slab file at any byte. At every length from full down
// to empty, each slot read returns false or the exact payload, and the exact
// payload whenever the slot lies wholly inside the file.
TEST(SlabFileTest, TruncationAtEveryOffsetFailsClosed) {
  const std::string path = ::testing::TempDir() + "slab_truncate.bin";
  constexpr size_t kSlots = 4;
  constexpr size_t kPayloadBytes = 256;
  // Layout: a 4096-byte superblock, then per slot a 32-byte header and the
  // payload area.
  constexpr size_t kSuperblockBytes = 4096;
  constexpr size_t kStride = 32 + kPayloadBytes;
  SlabFile slab;
  ASSERT_TRUE(slab.Open(path, kPayloadBytes, kSlots));
  std::vector<std::string> payloads(kSlots);
  for (size_t slot = 0; slot < kSlots; ++slot) {
    payloads[slot].resize(kPayloadBytes - 40 * slot);  // full and partial slots
    for (size_t i = 0; i < payloads[slot].size(); ++i) {
      payloads[slot][i] = static_cast<char>(slot * 31 + i * 7);
    }
    ASSERT_TRUE(slab.WriteSlot(slot, 100 + slot, payloads[slot].data(), payloads[slot].size()));
  }
  const size_t full = std::filesystem::file_size(path);
  ASSERT_EQ(full, kSuperblockBytes + kSlots * kStride);

  for (size_t length = full + 1; length-- > 0;) {
    std::filesystem::resize_file(path, length);
    for (size_t slot = 0; slot < kSlots; ++slot) {
      std::string out;
      const bool ok = slab.ReadSlot(slot, 100 + slot, &out);
      const bool whole = kSuperblockBytes + (slot + 1) * kStride <= length;
      ASSERT_TRUE(ok ? out == payloads[slot] : !whole)
          << "slot " << slot << " in a " << length << "-byte file: "
          << (ok ? "wrong bytes" : "lies wholly inside but did not read back");
    }
  }
  slab.Close();
  std::remove(path.c_str());
}

// A state whose serialized form does not fit a slot is dropped at eviction
// and counted; it never lands truncated. A state that fits the same slab
// spills and comes back bit for bit.
TEST(StateCacheTest, StateLargerThanASlotIsDroppedNotTruncated) {
  StateCacheConfig config = DiskConfig(1, "state_cache_slab_oversized.bin", 8);
  config.slab_slot_payload_bytes = StatePayloadBytes(12);
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());
  FillState(cache, 1, /*floats=*/13);  // one float too many
  FillState(cache, 2, /*floats=*/12);  // fits exactly
  StateCacheCounters counters = cache.Counters();
  ASSERT_EQ(counters.evictions, 2u);  // a 1-byte hot cap keeps nothing
  EXPECT_EQ(counters.drops, 1u);
  EXPECT_EQ(counters.spills, 1u);
  {
    StateCache::Lease dropped = cache.AcquireOrCreate(1);
    EXPECT_TRUE(dropped.state().hidden.empty());  // fresh: warm-restart
    EXPECT_EQ(dropped.state().steps, 0u);
  }
  {
    StateCache::Lease spilled = cache.AcquireOrCreate(2);
    EXPECT_EQ(spilled.state().hidden, PayloadFor(2, 12));
    EXPECT_EQ(spilled.state().steps, 2u);
  }
  counters = cache.Counters();
  EXPECT_EQ(counters.cold_hits, 1u);
  EXPECT_EQ(counters.misses, 3u);  // two fresh keys plus the dropped one
  std::remove(config.slab_path.c_str());
}

// Without a slab every eviction drops, and the next acquire of a dropped key
// is a fresh entry.
TEST(StateCacheTest, NoSlabDropsEvictedStates) {
  StateCacheConfig config;
  config.hot_bytes = 600;
  StateCache cache(config);
  EXPECT_FALSE(cache.disk_ok());
  for (uint64_t key = 1; key <= 8; ++key) {
    FillState(cache, key);
  }
  const StateCacheCounters counters = cache.Counters();
  ASSERT_GT(counters.evictions, 0u);
  EXPECT_EQ(counters.drops, counters.evictions);
  EXPECT_EQ(counters.spills, 0u);
  EXPECT_EQ(counters.cold_entries, 0u);
  EXPECT_EQ(counters.cold_resident_bytes, 0u);
  StateCache::Lease again = cache.AcquireOrCreate(1);  // evicted first
  EXPECT_TRUE(again.state().hidden.empty());
}

// The cold index is RAM: each spilled entry is charged kColdEntryOverhead,
// so the charge tracks the entry count and never exceeds what the slab's
// slot count allows, even when demotions outrun the slots.
TEST(StateCacheTest, ColdIndexIsChargedPerEntryWithinSlotBound) {
  constexpr size_t kSlots = 8;
  const StateCacheConfig config = DiskConfig(600, "state_cache_slab_index.bin", kSlots);
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());
  for (uint64_t key = 1; key <= 40; ++key) {
    FillState(cache, key);
    const StateCacheCounters counters = cache.Counters();
    EXPECT_EQ(counters.cold_resident_bytes, counters.cold_entries * kColdEntryOverhead)
        << "after key " << key;
    EXPECT_LE(counters.cold_resident_bytes, kSlots * kColdEntryOverhead) << "after key " << key;
  }
  const StateCacheCounters counters = cache.Counters();
  EXPECT_EQ(counters.cold_entries, kSlots);
  EXPECT_GT(counters.drops, 0u);  // FIFO slot reclaim
  EXPECT_EQ(counters.spills, counters.cold_entries + counters.drops);
  std::remove(config.slab_path.c_str());
}

TEST(StateCacheTest, PinnedEntriesAreNeverEvicted) {
  const StateCacheConfig config = DiskConfig(600, "state_cache_slab_pinned.bin", 64);
  StateCache cache(config);
  StateCache::Lease pinned = cache.AcquireOrCreate(1);
  pinned.state().hidden = PayloadFor(1);
  for (uint64_t key = 2; key <= 30; ++key) {
    FillState(cache, key);  // storm around the pinned entry
  }
  // Still bitwise intact and still hot: the lease pointer stayed valid the
  // whole time (this test running under ASan is the use-after-free proof).
  EXPECT_EQ(pinned.state().hidden, PayloadFor(1));
  pinned.Release();
  StateCache::Lease back = cache.AcquireOrCreate(1);
  EXPECT_EQ(back.state().hidden, PayloadFor(1));
  std::remove(config.slab_path.c_str());
}

TEST(StateCacheTest, LeaseIsExclusiveAndBlocksSecondAcquirer) {
  StateCacheConfig config;
  config.hot_bytes = 1 << 20;
  StateCache cache(config);
  StateCache::Lease first = cache.AcquireOrCreate(9);
  std::atomic<bool> second_got{false};
  std::thread blocked([&] {
    StateCache::Lease second = cache.AcquireOrCreate(9);
    // Must observe the first lease's mutation: exclusivity means the write
    // below happened before this acquire returned.
    EXPECT_EQ(second.state().steps, 77u);
    second_got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_got.load());  // still parked on the lease
  first.state().steps = 77;
  first.Release();
  blocked.join();
  EXPECT_TRUE(second_got.load());
}

// Every entry is leased past the hot cap, so eviction can free nothing:
// AcquireOrCreate still returns, with the hot tier over its cap (soft
// overshoot). Once the leases are released the hot tier settles under the
// cap, even though no state grew while leased.
TEST(StateCacheTest, PinnedOvershootSettlesUnderHotCapOnRelease) {
  StateCacheConfig config;
  config.hot_bytes = 512;  // well under eight fresh entries
  StateCache cache(config);
  std::vector<StateCache::Lease> leases;
  for (uint64_t key = 1; key <= 8; ++key) {
    leases.push_back(cache.AcquireOrCreate(key));
    ASSERT_TRUE(leases.back().valid());
  }
  StateCacheCounters counters = cache.Counters();
  EXPECT_GT(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_EQ(counters.evictions, 0u);
  EXPECT_EQ(counters.hot_entries, 8u);

  for (StateCache::Lease& lease : leases) {
    lease.Release();
  }
  counters = cache.Counters();
  EXPECT_LE(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LT(counters.hot_entries, 8u);
}

// The ci.sh ASan leg runs this with DEEPREST_STATECACHE_STRESS=1 and
// deliberately tiny caps: continuous eviction under concurrent leases, into a
// slab with fewer slots than the key space (so FIFO slot reclaim and drops
// run too), is exactly where a use-after-free or double-account would
// surface.
TEST(StateCacheTest, EvictionStormUnderConcurrentLeases) {
  const bool stress = std::getenv("DEEPREST_STATECACHE_STRESS") != nullptr;
  const size_t threads = 4;
  const size_t iterations = stress ? 4000 : 400;
  const uint64_t key_space = 64;

  // Tiny on purpose: constant eviction, and ~23 hot entries plus 16 slots
  // cannot hold 64 keys.
  StateCacheConfig config = DiskConfig(4096, "state_cache_slab_storm.bin", 16);
  config.slab_slot_payload_bytes = 128;
  StateCache cache(config);
  ASSERT_TRUE(cache.disk_ok());

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (size_t i = 0; i < iterations; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const uint64_t key = 1 + rng % key_space;
        StateCache::Lease lease = cache.AcquireOrCreate(key);
        ASSERT_TRUE(lease.valid());
        if (lease.state().hidden.empty()) {
          lease.state().hidden = PayloadFor(key, 16);  // fresh or dropped
        } else {
          // Hot or spilled, the state is the key's payload, bit for bit.
          ASSERT_EQ(lease.state().hidden, PayloadFor(key, 16)) << "key " << key;
        }
        lease.state().steps += 1;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  // Accounting stayed consistent through the storm: every access was a hit
  // or a miss, every eviction spilled, and every spill was promoted, is
  // still cold, or was dropped by slot reclaim.
  const StateCacheCounters counters = cache.Counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_GT(counters.drops, 0u);
  EXPECT_EQ(counters.hot_hits + counters.cold_hits + counters.misses, threads * iterations);
  EXPECT_EQ(counters.spills, counters.evictions);
  EXPECT_EQ(counters.spills, counters.cold_hits + counters.cold_entries + counters.drops);
  EXPECT_LE(counters.hot_entries + counters.cold_entries, key_space);
  EXPECT_LE(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_LE(counters.cold_entries, config.slab_slots);
  EXPECT_EQ(counters.cold_resident_bytes, counters.cold_entries * kColdEntryOverhead);
  std::remove(config.slab_path.c_str());
}

}  // namespace
}  // namespace deeprest
