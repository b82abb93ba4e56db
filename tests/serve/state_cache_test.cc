// Soft-memory tiered state cache: byte caps and pinned overshoot, CLOCK
// eviction, cold-tier round trips, slab truncation, pin/lease semantics, and
// the eviction-storm stress test the ci.sh ASan leg runs with
// DEEPREST_STATECACHE_STRESS=1.
#include "src/serve/state_cache.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/quant.h"

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

TEST(ColdTierTest, NamesRoundTrip) {
  ColdTier tier = ColdTier::kFp16;
  EXPECT_TRUE(ParseColdTier("disk", &tier));
  EXPECT_EQ(tier, ColdTier::kDisk);
  EXPECT_TRUE(ParseColdTier("fp16", &tier));
  EXPECT_EQ(tier, ColdTier::kFp16);
  EXPECT_TRUE(ParseColdTier("recompute", &tier));
  EXPECT_EQ(tier, ColdTier::kRecompute);
  EXPECT_FALSE(ParseColdTier("ram", &tier));
  EXPECT_STREQ(ColdTierName(ColdTier::kDisk), "disk");
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

TEST(StateCacheTest, AcquireWithoutCreateMissesCleanly) {
  StateCache cache(StateCacheConfig{});
  StateCache::Lease lease = cache.Acquire(42);
  EXPECT_FALSE(lease.valid());
  EXPECT_EQ(cache.Counters().misses, 1u);
  EXPECT_EQ(cache.Counters().hot_entries, 0u);
}

TEST(StateCacheTest, HotCapEvictsInClockOrderToFp16) {
  StateCacheConfig config;
  // 32 floats + overhead is ~240 bytes per entry: cap at ~6 entries.
  config.hot_bytes = 1500;
  config.cold_tier = ColdTier::kFp16;
  config.cold_bytes = 1 << 20;
  StateCache cache(config);
  for (uint64_t key = 1; key <= 20; ++key) {
    FillState(cache, key);
  }
  const StateCacheCounters counters = cache.Counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_EQ(counters.compressions, counters.evictions);
  EXPECT_LE(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_GT(counters.cold_entries, 0u);
}

TEST(StateCacheTest, Fp16PromotionIsWithinHalfPrecision) {
  StateCacheConfig config;
  config.hot_bytes = 600;  // ~2 entries: the first insert gets demoted fast
  config.cold_tier = ColdTier::kFp16;
  StateCache cache(config);
  FillState(cache, 1);
  for (uint64_t key = 2; key <= 8; ++key) {
    FillState(cache, key);  // push key 1 out of the hot tier
  }
  ASSERT_GT(cache.Counters().compressions, 0u);
  StateCache::Lease lease = cache.AcquireOrCreate(1);
  ASSERT_TRUE(lease.valid());
  const std::vector<float> expected = PayloadFor(1);
  ASSERT_EQ(lease.state().hidden.size(), expected.size());
  EXPECT_EQ(lease.state().steps, 1u);
  for (size_t i = 0; i < expected.size(); ++i) {
    // Round-to-nearest-even binary16: relative error bounded by 2^-11.
    const float bound = std::abs(expected[i]) * (1.0f / 2048.0f) + 1e-6f;
    EXPECT_NEAR(lease.state().hidden[i], expected[i], bound) << "index " << i;
    // And exactly the value the quantizer produces, not merely close.
    EXPECT_EQ(lease.state().hidden[i], HalfToFloat(FloatToHalf(expected[i])));
  }
  EXPECT_GT(cache.Counters().cold_hits, 0u);
}

TEST(StateCacheTest, DiskSpillRoundTripsBitExact) {
  StateCacheConfig config;
  config.hot_bytes = 600;
  config.cold_tier = ColdTier::kDisk;
  config.slab_path = ::testing::TempDir() + "state_cache_slab_roundtrip.bin";
  config.slab_slot_payload_bytes = 256;
  config.slab_slots = 64;
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
  StateCacheConfig config;
  config.hot_bytes = 600;
  config.cold_tier = ColdTier::kDisk;
  config.slab_path = ::testing::TempDir() + "state_cache_slab_torn.bin";
  config.slab_slots = 64;
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

TEST(StateCacheTest, RecomputeRebuildsDroppedEntries) {
  StateCacheConfig config;
  config.hot_bytes = 600;
  config.cold_tier = ColdTier::kRecompute;
  StateCache cache(config);
  std::atomic<uint64_t> recompute_calls{0};
  cache.SetRecompute([&](uint64_t key, StreamState* out) {
    recompute_calls.fetch_add(1);
    out->hidden = PayloadFor(key);
    out->steps = key;
    out->model_version = 1;
    return true;
  });
  StateCache::Lease first = cache.AcquireOrCreate(1);
  ASSERT_TRUE(first.valid());
  EXPECT_EQ(first.state().hidden, PayloadFor(1));  // miss -> recompute
  first.Release();
  for (uint64_t key = 2; key <= 8; ++key) {
    StateCache::Lease lease = cache.AcquireOrCreate(key);
  }
  ASSERT_GT(cache.Counters().drops, 0u);  // kRecompute demotions drop
  StateCache::Lease again = cache.AcquireOrCreate(1);
  ASSERT_TRUE(again.valid());
  EXPECT_EQ(again.state().hidden, PayloadFor(1));
  EXPECT_EQ(again.state().steps, 1u);
  EXPECT_GE(recompute_calls.load(), 2u);
  EXPECT_GE(cache.Counters().recomputes, 2u);
}

TEST(StateCacheTest, PinnedEntriesAreNeverEvicted) {
  StateCacheConfig config;
  config.hot_bytes = 600;
  config.cold_tier = ColdTier::kFp16;
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
}

TEST(StateCacheTest, ClearDropsUnpinnedButKeepsLeased) {
  StateCacheConfig config;
  config.hot_bytes = 1 << 20;
  StateCache cache(config);
  for (uint64_t key = 1; key <= 10; ++key) {
    FillState(cache, key);
  }
  StateCache::Lease held = cache.AcquireOrCreate(3);
  cache.Clear();
  EXPECT_EQ(cache.Counters().hot_entries, 1u);
  EXPECT_EQ(held.state().hidden, PayloadFor(3));
  held.Release();
  EXPECT_EQ(cache.Counters().cold_entries, 0u);
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
  config.cold_tier = ColdTier::kRecompute;
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
// deliberately tiny caps: continuous eviction under concurrent leases is
// exactly where a use-after-free or double-account would surface.
TEST(StateCacheTest, EvictionStormUnderConcurrentLeases) {
  const bool stress = std::getenv("DEEPREST_STATECACHE_STRESS") != nullptr;
  const size_t threads = 4;
  const size_t iterations = stress ? 4000 : 400;
  const uint64_t key_space = 64;

  StateCacheConfig config;
  config.hot_bytes = 4096;  // tiny on purpose: constant eviction
  config.cold_tier = ColdTier::kFp16;
  config.cold_bytes = 4096;
  StateCache cache(config);

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
          lease.state().hidden = PayloadFor(key, 16);
        } else {
          // Whatever tier the state came through, it is the key's payload —
          // possibly fp16-rounded, so compare through the quantizer.
          ASSERT_EQ(lease.state().hidden.size(), 16u);
          const std::vector<float> expected = PayloadFor(key, 16);
          for (size_t j = 0; j < expected.size(); ++j) {
            const float exact = expected[j];
            const float rounded = HalfToFloat(FloatToHalf(exact));
            ASSERT_TRUE(lease.state().hidden[j] == exact ||
                        lease.state().hidden[j] == rounded)
                << "key " << key << " index " << j;
          }
        }
        lease.state().steps += 1;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const StateCacheCounters counters = cache.Counters();
  EXPECT_GT(counters.evictions, 0u);
  EXPECT_LE(counters.hot_resident_bytes, config.hot_bytes);
  EXPECT_LE(counters.cold_resident_bytes, config.cold_bytes);
  // Accounting stayed consistent through the storm: with no lease held,
  // Clear drops every hot entry and the hot resident count returns to zero.
  cache.Clear();
  const StateCacheCounters cleared = cache.Counters();
  EXPECT_EQ(cleared.hot_entries, 0u);
  EXPECT_EQ(cleared.hot_resident_bytes, 0u);
}

}  // namespace
}  // namespace deeprest
