// Soft-memory tiered state: bounded-RAM caching of per-stream hidden states.
//
// Serving millions of concurrent streams means millions of per-API-context
// GRU hidden states that cannot all stay hot in RAM. This file provides the
// reclaimable cache layer (in the spirit of Midas soft memory): a cache
// that shrinks under pressure without correctness loss, because every tier
// transition is either lossless (disk spill stores raw float bits),
// precision-bounded (fp16 round-to-nearest-even via src/nn/quant.h), or
// recoverable (recompute-on-miss / warm-restart). Eviction is never a
// correctness event.
//
// Components:
//
//  * StateCache — the two-tier per-stream state cache; its byte caps
//    (hot_bytes + cold_bytes) are its memory budget:
//      hot tier:  live StreamState entries (fp32), byte-capped, CLOCK
//                 eviction with reference bits; pinned (leased) entries are
//                 never evicted.
//      cold tier: one of
//        kFp16      — evicted states compressed in place to binary16
//                     (round-to-nearest-even; promotion decompresses),
//                     byte-capped, oldest dropped first.
//        kDisk      — evicted states spilled to a fixed-slot slab file with
//                     per-slot FNV-1a checksums (bit-exact round trip; a
//                     torn slot reads as a miss, never as wrong data).
//        kRecompute — evicted states are dropped; the registered recompute
//                     callback (or the consumer's warm-restart fallback)
//                     rebuilds them on the next access.
//    Access is by exclusive pin/lease: Acquire/AcquireOrCreate return a
//    Lease that pins the entry for its lifetime, so eviction can never free
//    state a reader still borrows. A second Acquire of the same key blocks
//    until the lease returns.
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
#include <functional>
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

enum class ColdTier {
  kFp16,       // compress evicted states to binary16 in RAM
  kDisk,       // spill raw float bits to the slab file (bit-exact)
  kRecompute,  // drop; recompute callback / consumer warm-restart rebuilds
};

const char* ColdTierName(ColdTier tier);
// Parses "fp16" / "disk" / "recompute"; false on anything else.
bool ParseColdTier(const std::string& name, ColdTier* out);

struct StateCacheConfig {
  // Hot-tier byte cap: CLOCK eviction starts when resident fp32 state
  // exceeds this.
  size_t hot_bytes = size_t{64} << 20;
  ColdTier cold_tier = ColdTier::kFp16;
  // kFp16: byte cap of the compressed tier (oldest entries drop past it).
  size_t cold_bytes = size_t{32} << 20;
  // kDisk: slab geometry. slot_payload_bytes must fit a serialized
  // StreamState (16 bytes of steps/version + 4 per hidden float); entries
  // that do not fit are dropped (counted), never truncated.
  std::string slab_path;
  size_t slab_slot_payload_bytes = 256;
  size_t slab_slots = 1 << 16;
};

// Per-tier activity counters (monotonic except the resident/entry gauges).
struct StateCacheCounters {
  uint64_t hot_hits = 0;       // served straight from the hot tier
  uint64_t cold_hits = 0;      // promoted from fp16/disk cold tier
  uint64_t misses = 0;         // not in any tier (fresh stream or dropped)
  uint64_t recomputes = 0;     // misses rebuilt by the recompute callback
  uint64_t evictions = 0;      // hot-tier CLOCK demotions
  uint64_t compressions = 0;   // demotions that landed in the fp16 tier
  uint64_t spills = 0;         // demotions written to a disk slab slot
  uint64_t drops = 0;          // states lost entirely (cold overflow, torn
                               // slot, oversized entry, kRecompute demotion)
  size_t hot_entries = 0;
  size_t cold_entries = 0;
  size_t hot_resident_bytes = 0;
  size_t cold_resident_bytes = 0;  // RAM held by the fp16 tier (disk is free)
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

  // Creates/truncates the slab (states are recomputable; the slab never
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

  // Rebuilds a dropped entry on miss (kRecompute tier, or any tier after a
  // cold-side loss). Returns false when the key cannot be rebuilt. Called
  // WITHOUT the cache mutex held; must not touch this cache.
  using RecomputeFn = std::function<bool(uint64_t key, StreamState* out)>;
  void SetRecompute(RecomputeFn fn);

  // Looks the key up hot → cold → recompute. Invalid lease on a full miss.
  // Blocks while another thread holds the key's lease.
  Lease Acquire(uint64_t key) DEEPREST_EXCLUDES(mu_);
  // Acquire, creating a fresh (empty-hidden) entry on a full miss — the
  // serving path's entry point: a fresh entry means "start from the model's
  // warm-start state". Always returns a valid lease.
  Lease AcquireOrCreate(uint64_t key) DEEPREST_EXCLUDES(mu_);

  // Drops every unpinned entry in both tiers (leased entries survive).
  void Clear() DEEPREST_EXCLUDES(mu_);

  StateCacheCounters Counters() const DEEPREST_EXCLUDES(mu_);
  const StateCacheConfig& config() const { return config_; }
  // False when kDisk was configured but the slab failed to open (the cache
  // then behaves like kRecompute and counts demotions as drops).
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
  // fp16-compressed cold entry (kFp16) or slab slot handle (kDisk).
  struct ColdEntry {
    std::vector<uint16_t> half;  // kFp16: RNE-rounded hidden state
    size_t slot = 0;             // kDisk
    uint64_t steps = 0;
    uint64_t model_version = 0;
    size_t resident_bytes = 0;  // RAM held (0 for disk entries)
    // Matches this entry's cold_fifo_ record; a fifo record whose seq no
    // longer matches is stale (the key was promoted or re-demoted since)
    // and is skipped lazily — erasure never scans the fifo.
    uint64_t seq = 0;
  };

  friend class Lease;
  void ReleaseLease(uint64_t key) DEEPREST_EXCLUDES(mu_);

  // Shared Acquire/AcquireOrCreate body. Map bookkeeping happens under mu_;
  // a recompute runs outside it.
  Lease AcquireImpl(uint64_t key, bool create) DEEPREST_EXCLUDES(mu_);
  // Evicts until the hot tier fits config_.hot_bytes (pinned overshoot
  // allowed).
  void ShrinkHotToCap() DEEPREST_EXCLUDES(mu_);
  void InsertHotLocked(uint64_t key, StreamState state, bool pinned)
      DEEPREST_REQUIRES(mu_);
  void RemoveFromRingLocked(Entry* entry) DEEPREST_REQUIRES(mu_);
  // One CLOCK eviction: demotes the first unpinned hand candidate to the
  // cold tier. False when everything left is pinned.
  bool EvictOneLocked() DEEPREST_REQUIRES(mu_);
  // Demotion into the configured cold tier (fp16 copy, slab slot, or a
  // counted drop).
  void DemoteLocked(Entry& entry) DEEPREST_REQUIRES(mu_);
  // Drops cold entries (FIFO) until the fp16 tier fits its cap.
  void EnforceColdCapLocked() DEEPREST_REQUIRES(mu_);
  // No-op on a miss; a disk entry's slot returns to free_slots_.
  void EraseColdLocked(uint64_t key) DEEPREST_REQUIRES(mu_);
  // Pops fifo records until one matches a live cold entry; that key is the
  // FIFO victim. False when the cold tier is empty.
  bool PopColdVictimLocked(uint64_t* key) DEEPREST_REQUIRES(mu_);
  // Drops stale fifo records wholesale once they outnumber live entries.
  void CompactColdFifoLocked() DEEPREST_REQUIRES(mu_);
  static size_t EntryBytes(const StreamState& state);

  const StateCacheConfig config_;
  RecomputeFn recompute_;  // set before serving starts; then read-only
  std::atomic<bool> disk_ok_{false};

  mutable Mutex mu_;  // deeprest-lint: lock-level(leaf)
  std::condition_variable lease_cv_;
  // Hot tier. Byte-budgeted via hot_resident_ + CLOCK over ring_; never
  // grows past config_.hot_bytes except by pinned-entry overshoot.
  // deeprest-lint: bounded(hot tier is byte-budgeted: EvictOneLocked keeps hot_resident_ under config_.hot_bytes)
  std::unordered_map<uint64_t, std::unique_ptr<Entry>> hot_ DEEPREST_GUARDED_BY(mu_);
  std::vector<Entry*> ring_ DEEPREST_GUARDED_BY(mu_);  // CLOCK order
  size_t hand_ DEEPREST_GUARDED_BY(mu_) = 0;
  // Cold tier (fp16 entries capped by cold_bytes; disk entries capped by
  // slab slots — both enforced FIFO by cold_fifo_, which holds {key, seq}
  // records and tolerates stale ones; see ColdEntry::seq).
  // deeprest-lint: bounded(cold tier is capped by cold_bytes / slab slots; EnforceColdCapLocked drops FIFO overflow)
  std::unordered_map<uint64_t, ColdEntry> cold_ DEEPREST_GUARDED_BY(mu_);
  std::deque<std::pair<uint64_t, uint64_t>> cold_fifo_ DEEPREST_GUARDED_BY(mu_);
  uint64_t cold_seq_ DEEPREST_GUARDED_BY(mu_) = 0;
  std::vector<size_t> free_slots_ DEEPREST_GUARDED_BY(mu_);
  SlabFile slab_ DEEPREST_GUARDED_BY(mu_);
  size_t hot_resident_ DEEPREST_GUARDED_BY(mu_) = 0;
  size_t cold_resident_ DEEPREST_GUARDED_BY(mu_) = 0;

  // Counters are atomics so Counters() mid-eviction-storm never blocks the
  // serving path for long.
  std::atomic<uint64_t> hot_hits_{0}, cold_hits_{0}, misses_{0}, recomputes_{0};
  std::atomic<uint64_t> evictions_{0}, compressions_{0}, spills_{0}, drops_{0};
};

}  // namespace deeprest

#endif  // SRC_SERVE_STATE_CACHE_H_
