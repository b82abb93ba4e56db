// Soft-memory tiered state: bounded-RAM caching of per-stream hidden states.
//
// Serving millions of concurrent streams means millions of per-API-context
// GRU hidden states that cannot all stay hot in RAM. This file provides the
// reclaimable cache layer (in the spirit of Midas soft memory): a cache
// that shrinks under pressure by spilling to a disk slab that stores raw
// float bits, so a spilled state comes back bit for bit. Eviction is never a
// correctness event when it spills. It drops the state instead when no slab
// is open, when the state is larger than a slot, when a full slab reclaims
// the oldest spilled entry's slot, or when a slot reads back torn; every
// drop is counted. A dropped stream's next lease is fresh (empty hidden), so
// its consumer warm-restarts it from the model's warm-start state, and the
// stream's later answers no longer match one unbroken submission.
//
// Components:
//
//  * StateCache — the two-tier per-stream state cache; its hot byte cap and
//    slab slot count are its memory budget:
//      hot tier:  live StreamState entries (fp32), byte-capped, CLOCK
//                 eviction with reference bits; pinned (leased) entries are
//                 never evicted.
//      cold tier: evicted states spilled to a fixed-slot slab file with
//                 per-slot FNV-1a checksums (bit-exact round trip; a torn
//                 slot reads as a miss, never as wrong data). A full slab
//                 reclaims its oldest slot (FIFO). Each spilled entry costs
//                 kColdEntryOverhead bytes of RAM for its index record.
//    Access is by exclusive pin/lease: AcquireOrCreate returns a Lease that
//    pins the entry for its lifetime, so eviction can never free state a
//    reader still borrows. A second acquire of the same key blocks until
//    the lease returns.
//
// Locking (TSA-annotated; see DESIGN.md "Soft-memory tiered state"):
//
//   * StateCache::mu_ is a leaf lock. Every entry point that can grow the
//     hot tier (an acquire that inserts, a lease release that re-measures)
//     evicts back under hot_bytes before it returns; what stays pinned may
//     overshoot until its lease goes (soft memory).
//   * Consumers holding several leases at once (EstimationService batches)
//     must acquire them in ascending key order — the documented
//     deadlock-free order for the blocking exclusive lease.
#ifndef SRC_SERVE_STATE_CACHE_H_
#define SRC_SERVE_STATE_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/thread_annotations.h"

namespace deeprest {

// ---------------------------------------------------------------------------
// StateCache — two-tier cache of per-stream estimator continuation state.
// ---------------------------------------------------------------------------

// One stream's continuation state: the flattened hidden state (expert-major,
// expert_count * hidden_dim floats — the layout DeepRestEstimator::
// StreamCursor uses), the number of windows the stream has consumed, and the
// model version that produced the state. An empty `hidden` means "fresh":
// the next pass starts from the model's warm-start cache.
struct StreamState {
  std::vector<float> hidden;
  uint64_t steps = 0;
  uint64_t model_version = 0;
};

// The disk slab is the only cold tier. StateCacheConfig::cold_tier is
// ignored; it stays only because the benchmark harness assigns it.
enum class ColdTier {
  kDisk,  // spill raw float bits to the slab file (bit-exact)
};

// RAM charged per spilled entry for its index record (map node and FIFO
// record); the payload itself lives on disk. A slab of N slots can charge at
// most N * kColdEntryOverhead bytes.
inline constexpr size_t kColdEntryOverhead = 64;

// Slot payload bytes a state of `hidden_floats` floats takes in the slab:
// its steps and model version, then the raw float bits.
constexpr size_t StatePayloadBytes(size_t hidden_floats) {
  return 2 * sizeof(uint64_t) + hidden_floats * sizeof(float);
}

struct StateCacheConfig {
  // Hot-tier byte cap: CLOCK eviction starts when resident fp32 state
  // exceeds this.
  size_t hot_bytes = size_t{64} << 20;
  ColdTier cold_tier = ColdTier::kDisk;  // ignored (see ColdTier)
  // Slab geometry. With no slab_path, or a slab that fails to open, evicted
  // states are dropped (counted). slot_payload_bytes must fit a state's
  // StatePayloadBytes; entries that do not fit are dropped (counted), never
  // truncated.
  std::string slab_path;
  size_t slab_slot_payload_bytes = 256;
  size_t slab_slots = 1 << 16;
};

// Per-tier activity counters (monotonic except the resident/entry gauges).
struct StateCacheCounters {
  uint64_t hot_hits = 0;       // served straight from the hot tier
  uint64_t cold_hits = 0;      // promoted from the disk slab
  uint64_t misses = 0;         // not in any tier (fresh stream or dropped)
  uint64_t evictions = 0;      // hot-tier CLOCK demotions
  uint64_t spills = 0;         // demotions written to a disk slab slot
  uint64_t drops = 0;          // states lost entirely (no slab, oversized
                               // entry, reclaimed or torn slot)
  size_t hot_entries = 0;
  size_t cold_entries = 0;
  size_t hot_resident_bytes = 0;
  size_t cold_resident_bytes = 0;  // cold_entries * kColdEntryOverhead
};

// Fixed-slot spill file for evicted stream states. Every slot carries a
// {magic, key, payload size, FNV-1a checksum} header; a read validates all
// four, so a torn or reused slot fails closed as a miss — the slab can lose
// data (it is a cache) but can never return wrong bytes. The superblock is
// written with the checkpoint.h atomic-replace discipline; slot writes are
// plain pwrites guarded by their checksums. Not internally synchronized:
// StateCache serializes access under its own mutex.
class SlabFile {
 public:
  SlabFile() = default;
  ~SlabFile() { Close(); }
  SlabFile(const SlabFile&) = delete;
  SlabFile& operator=(const SlabFile&) = delete;

  // Creates/truncates the slab (a lost state warm-restarts; the slab never
  // needs to outlive the process). False on I/O failure — the cache then
  // degrades to dropping evicted entries.
  bool Open(const std::string& path, size_t slot_payload_bytes, size_t slot_count);
  void Close();
  bool is_open() const { return fd_ >= 0; }
  size_t slot_payload_bytes() const { return slot_payload_bytes_; }
  size_t slot_count() const { return slot_count_; }

  // False when the payload does not fit or the pwrite fails.
  bool WriteSlot(size_t slot, uint64_t key, const void* payload, size_t payload_bytes);
  // Validates magic/key/size/checksum; appends the payload to *out. False
  // on any mismatch (torn write, stale slot, wrong key).
  bool ReadSlot(size_t slot, uint64_t expected_key, std::string* out) const;

 private:
  struct SlotHeader {
    uint64_t magic = 0;
    uint64_t key = 0;
    uint64_t payload_bytes = 0;
    uint64_t checksum = 0;
  };

  int fd_ = -1;
  size_t slot_payload_bytes_ = 0;
  size_t slot_count_ = 0;
  std::string path_;
};

class StateCache {
 public:
  // Exclusive pin on one entry. While a Lease is alive its entry cannot be
  // evicted, demoted, or concurrently leased; state() is freely mutable.
  // Destruction (or explicit release) unpins, re-accounts the entry's bytes
  // (states grow on first use), and wakes blocked acquirers.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool valid() const { return cache_ != nullptr; }
    uint64_t key() const { return key_; }
    StreamState& state() { return *state_; }
    const StreamState& state() const { return *state_; }
    void Release();

   private:
    friend class StateCache;
    Lease(StateCache* cache, uint64_t key, StreamState* state)
        : cache_(cache), key_(key), state_(state) {}

    StateCache* cache_ = nullptr;
    uint64_t key_ = 0;
    StreamState* state_ = nullptr;
  };

  explicit StateCache(const StateCacheConfig& config);
  StateCache(const StateCache&) = delete;
  StateCache& operator=(const StateCache&) = delete;

  // Looks the key up hot, then cold, creating a fresh (empty-hidden) entry
  // on a full miss: a fresh entry means "start from the model's warm-start
  // state". Always returns a valid lease. Blocks while another thread holds
  // the key's lease.
  Lease AcquireOrCreate(uint64_t key) DEEPREST_EXCLUDES(mu_);

  StateCacheCounters Counters() const DEEPREST_EXCLUDES(mu_);
  const StateCacheConfig& config() const { return config_; }
  // False when the slab failed to open or no slab_path was given (the cache
  // then counts every demotion as a drop).
  bool disk_ok() const { return disk_ok_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t key = 0;
    StreamState state;
    size_t resident_bytes = 0;  // what this entry counts against hot_bytes
    bool pinned = false;
    bool ref = false;    // CLOCK reference bit
    size_t ring_pos = 0;  // position in ring_
  };
  // Slab slot handle of a spilled entry.
  struct ColdEntry {
    size_t slot = 0;
    // Matches this entry's cold_fifo_ record; a fifo record whose seq no
    // longer matches is stale (the key was promoted or re-demoted since)
    // and is skipped lazily — erasure never scans the fifo.
    uint64_t seq = 0;
  };

  friend class Lease;
  void ReleaseLease(uint64_t key) DEEPREST_EXCLUDES(mu_);

  // Evicts until the hot tier fits config_.hot_bytes (pinned overshoot
  // allowed).
  void ShrinkHotToCap() DEEPREST_EXCLUDES(mu_);
  void InsertHotLocked(uint64_t key, StreamState state, bool pinned)
      DEEPREST_REQUIRES(mu_);
  void RemoveFromRingLocked(Entry* entry) DEEPREST_REQUIRES(mu_);
  // One CLOCK eviction: demotes the first unpinned hand candidate to the
  // cold tier. False when everything left is pinned.
  bool EvictOneLocked() DEEPREST_REQUIRES(mu_);
  // Demotion into a slab slot, or a counted drop.
  void DemoteLocked(Entry& entry) DEEPREST_REQUIRES(mu_);
  // No-op on a miss; the entry's slot returns to free_slots_.
  void EraseColdLocked(uint64_t key) DEEPREST_REQUIRES(mu_);
  // Pops fifo records until one matches a live cold entry; that key is the
  // FIFO victim. False when the cold tier is empty.
  bool PopColdVictimLocked(uint64_t* key) DEEPREST_REQUIRES(mu_);
  // Drops stale fifo records wholesale once they outnumber live entries.
  void CompactColdFifoLocked() DEEPREST_REQUIRES(mu_);
  static size_t EntryBytes(const StreamState& state);

  const StateCacheConfig config_;
  std::atomic<bool> disk_ok_{false};

  mutable Mutex mu_;  // deeprest-lint: lock-level(leaf)
  std::condition_variable lease_cv_;
  // Hot tier. Byte-budgeted via hot_resident_ + CLOCK over ring_; never
  // grows past config_.hot_bytes except by pinned-entry overshoot.
  // deeprest-lint: bounded(hot tier is byte-budgeted: EvictOneLocked keeps hot_resident_ under config_.hot_bytes)
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> hot_ DEEPREST_GUARDED_BY(mu_);
  std::vector<Entry*> ring_ DEEPREST_GUARDED_BY(mu_);  // CLOCK order
  size_t hand_ DEEPREST_GUARDED_BY(mu_) = 0;
  // Cold tier, capped by the slab's slot count: a full slab reclaims the
  // oldest slot through cold_fifo_, which holds {key, seq} records and
  // tolerates stale ones (see ColdEntry::seq).
  // deeprest-lint: bounded(one entry per slab slot; DemoteLocked reclaims the oldest slot when the slab is full)
  std::unordered_map<uint64_t, ColdEntry> cold_ DEEPREST_GUARDED_BY(mu_);
  std::deque<std::pair<uint64_t, uint64_t>> cold_fifo_ DEEPREST_GUARDED_BY(mu_);
  uint64_t cold_seq_ DEEPREST_GUARDED_BY(mu_) = 0;
  std::vector<size_t> free_slots_ DEEPREST_GUARDED_BY(mu_);
  SlabFile slab_ DEEPREST_GUARDED_BY(mu_);
  size_t hot_resident_ DEEPREST_GUARDED_BY(mu_) = 0;

  // Counters are atomics so Counters() mid-eviction-storm never blocks the
  // serving path for long.
  std::atomic<uint64_t> hot_hits_{0}, cold_hits_{0}, misses_{0};
  std::atomic<uint64_t> evictions_{0}, spills_{0}, drops_{0};
};

}  // namespace deeprest

#endif  // SRC_SERVE_STATE_CACHE_H_
