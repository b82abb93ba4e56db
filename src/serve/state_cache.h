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
//  * MemoryBudget — process-wide soft-memory gauge. Consumers Charge/Release
//    bytes as they allocate and free; Reserve additionally runs registered
//    pressure callbacks until usage is back under budget (or every callback
//    declines). The gauge is what lets several caches share one bound.
//
//  * StateCache — the two-tier per-stream state cache:
//      hot tier:  live StreamState entries (fp32), byte-budgeted, CLOCK
//                 eviction with reference bits; pinned (leased) entries are
//                 never evicted.
//      cold tier: one of
//        kFp16      — evicted states compressed in place to binary16
//                     (round-to-nearest-even; promotion decompresses).
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
// Lock hierarchy (TSA-annotated; see DESIGN.md "Soft-memory tiered state"):
//
//   MemoryBudget::mu_  →  StateCache::mu_
//
//   * Pressure callbacks run WITH MemoryBudget::mu_ held and take the
//     cache's own mutex inside — so no component may call Reserve(),
//     CheckPressure(), RegisterPressure() or UnregisterPressure() while
//     holding a cache mutex (that is the cycle). Charge()/Release() are
//     atomic-only and safe anywhere.
//   * StateCache public entry points do their map work under mu_, then
//     charge the budget AFTER unlocking; the gauge lags an in-flight
//     operation by at most one entry (soft memory, soft accounting).
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
// MemoryBudget — process-wide soft-memory gauge with pressure callbacks.
// ---------------------------------------------------------------------------
class MemoryBudget {
 public:
  // budget_bytes == 0 means unlimited (the gauge still counts usage).
  explicit MemoryBudget(size_t budget_bytes = 0) : budget_(budget_bytes) {}

  void SetBudget(size_t bytes) { budget_.store(bytes, std::memory_order_relaxed); }
  size_t budget() const { return budget_.load(std::memory_order_relaxed); }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  // Bytes over budget right now (0 when unlimited or under).
  size_t overage() const;

  // Atomic-only accounting; never runs callbacks, safe to call anywhere
  // (including from inside a pressure callback).
  void Charge(size_t bytes) { used_.fetch_add(bytes, std::memory_order_relaxed); }
  void Release(size_t bytes) { used_.fetch_sub(bytes, std::memory_order_relaxed); }

  // Charge + CheckPressure: the normal allocation path. Must NOT be called
  // while holding any cache mutex (see the lock hierarchy above).
  void Reserve(size_t bytes) DEEPREST_EXCLUDES(mu_) {
    Charge(bytes);
    CheckPressure();
  }

  // Runs pressure callbacks while usage exceeds the budget. Stops when a
  // full pass frees nothing (everything evictable is pinned — soft
  // overshoot is allowed by design) or after a bounded number of passes.
  void CheckPressure() DEEPREST_EXCLUDES(mu_);

  // A pressure callback frees up to `bytes_to_free` bytes (by shrinking its
  // tier) and returns how many it actually released from the gauge. Runs
  // with MemoryBudget::mu_ held; it may Charge/Release but must not call
  // Reserve/CheckPressure/Register/Unregister (lock cycle).
  using PressureFn = std::function<size_t(size_t bytes_to_free)>;
  size_t RegisterPressure(PressureFn fn) DEEPREST_EXCLUDES(mu_);
  void UnregisterPressure(size_t id) DEEPREST_EXCLUDES(mu_);

  // How many times CheckPressure found the gauge over budget and ran the
  // callback chain.
  uint64_t pressure_events() const {
    return pressure_events_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<size_t> budget_;
  std::atomic<size_t> used_{0};
  std::atomic<uint64_t> pressure_events_{0};
  // Pressure callbacks run under this mutex and take the cache's mutex
  // (the evict path) — hence the acquired-before edge, and hence why
  // Reserve() while holding a cache mutex is a deadlock.
  // deeprest-lint: lock-level(before StateCache::mu_)
  mutable Mutex mu_;
  std::vector<std::pair<size_t, PressureFn>> callbacks_ DEEPREST_GUARDED_BY(mu_);
  size_t next_callback_id_ DEEPREST_GUARDED_BY(mu_) = 1;
};

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
  // exceeds this. Always enforced, independent of the global gauge.
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
  // Optional process gauge. The cache Charges/Releases its resident bytes
  // against it and registers a pressure callback that shrinks the hot tier.
  // Must outlive the cache.
  MemoryBudget* budget = nullptr;
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
  uint64_t pressure_shrinks = 0;  // pressure-callback invocations
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
  ~StateCache();
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

  // Pressure hook (also directly testable): demotes unpinned hot entries in
  // CLOCK order until `bytes` have left the hot tier or nothing unpinned
  // remains. Returns the RAM actually released from the gauge's view (hot
  // bytes freed minus cold bytes newly occupied).
  size_t ShrinkHot(size_t bytes) DEEPREST_EXCLUDES(mu_);

  // Drops every unpinned entry in both tiers (leased entries survive).
  void Clear() DEEPREST_EXCLUDES(mu_);

  StateCacheCounters Counters() const DEEPREST_EXCLUDES(mu_);
  const StateCacheConfig& config() const { return config_; }
  const MemoryBudget* budget() const { return config_.budget; }
  // False when kDisk was configured but the slab failed to open (the cache
  // then behaves like kRecompute and counts demotions as drops).
  bool disk_ok() const { return disk_ok_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    uint64_t key = 0;
    StreamState state;
    size_t charged_bytes = 0;  // what this entry holds against the gauge
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
    size_t charged_bytes = 0;  // RAM charge (0 for disk entries)
    // Matches this entry's cold_fifo_ record; a fifo record whose seq no
    // longer matches is stale (the key was promoted or re-demoted since)
    // and is skipped lazily — erasure never scans the fifo.
    uint64_t seq = 0;
  };

  friend class Lease;
  void ReleaseLease(uint64_t key) DEEPREST_EXCLUDES(mu_);

  // Shared Acquire/AcquireOrCreate body. Map bookkeeping happens under mu_;
  // budget charges are applied after unlock (see the hierarchy note on top).
  Lease AcquireImpl(uint64_t key, bool create) DEEPREST_EXCLUDES(mu_);
  // Evicts until the hot tier fits config_.hot_bytes (pinned overshoot
  // allowed); reports freed RAM to the gauge.
  void ShrinkHotToCap() DEEPREST_EXCLUDES(mu_);
  void InsertHotLocked(uint64_t key, StreamState state, bool pinned)
      DEEPREST_REQUIRES(mu_);
  void RemoveFromRingLocked(Entry* entry) DEEPREST_REQUIRES(mu_);
  // One CLOCK eviction: demotes the first unpinned hand candidate to the
  // cold tier. Returns net RAM released (0 when everything is pinned).
  size_t EvictOneLocked() DEEPREST_REQUIRES(mu_);
  // Demotion into the configured cold tier; returns RAM newly charged by
  // the cold side (fp16 bytes; 0 for disk/recompute) and adds any RAM it
  // freed cold-side (stale copies, FIFO cap drops) to *cold_freed — both
  // flow back to the gauge through the caller.
  size_t DemoteLocked(Entry& entry, size_t* cold_freed) DEEPREST_REQUIRES(mu_);
  // Drops cold entries (FIFO) until the fp16 tier fits its cap; returns the
  // RAM freed.
  size_t EnforceColdCapLocked() DEEPREST_REQUIRES(mu_);
  // Returns the erased entry's RAM charge (0 on miss / disk entries) so the
  // caller can return it to the gauge.
  size_t EraseColdLocked(uint64_t key) DEEPREST_REQUIRES(mu_);
  // Pops fifo records until one matches a live cold entry; that key is the
  // FIFO victim. False when the cold tier is empty.
  bool PopColdVictimLocked(uint64_t* key) DEEPREST_REQUIRES(mu_);
  // Drops stale fifo records wholesale once they outnumber live entries.
  void CompactColdFifoLocked() DEEPREST_REQUIRES(mu_);
  static size_t EntryBytes(const StreamState& state);

  const StateCacheConfig config_;
  RecomputeFn recompute_;  // set before serving starts; then read-only
  std::atomic<bool> disk_ok_{false};
  size_t pressure_callback_id_ = 0;  // registration with config_.budget

  mutable Mutex mu_;  // deeprest-lint: lock-level(after MemoryBudget::mu_)
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
  std::atomic<uint64_t> pressure_shrinks_{0};
};

}  // namespace deeprest

#endif  // SRC_SERVE_STATE_CACHE_H_
