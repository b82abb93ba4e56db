#include "src/serve/state_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "src/nn/quant.h"
#include "src/serve/checkpoint.h"

namespace deeprest {

namespace {

constexpr uint64_t kSlotMagic = 0x44525354534C4231ULL;  // "DRSTSLB1"

// Slab superblock region: one page holding {magic, slot payload bytes, slot
// count}; slots start right after it.
constexpr size_t kSuperblockBytes = 4096;

// Fixed per-entry overhead charged on top of the payload: map node, Entry
// struct, ring slot. An estimate, not an exact malloc audit — the gauge is
// soft memory, what matters is that 10^6 entries register as ~10^6 * (128 +
// overhead) bytes, not as zero.
constexpr size_t kHotEntryOverhead = 112;
constexpr size_t kColdEntryOverhead = 64;

size_t SerializedStateBytes(const StreamState& state) {
  return 2 * sizeof(uint64_t) + state.hidden.size() * sizeof(float);
}

void SerializeState(const StreamState& state, std::string* out) {
  out->clear();
  out->reserve(SerializedStateBytes(state));
  uint64_t words[2] = {state.steps, state.model_version};
  out->append(reinterpret_cast<const char*>(words), sizeof(words));
  out->append(reinterpret_cast<const char*>(state.hidden.data()),
              state.hidden.size() * sizeof(float));
}

bool DeserializeState(const std::string& bytes, StreamState* out) {
  if (bytes.size() < 2 * sizeof(uint64_t) ||
      (bytes.size() - 2 * sizeof(uint64_t)) % sizeof(float) != 0) {
    return false;
  }
  uint64_t words[2];
  std::memcpy(words, bytes.data(), sizeof(words));
  out->steps = words[0];
  out->model_version = words[1];
  const size_t floats = (bytes.size() - sizeof(words)) / sizeof(float);
  out->hidden.resize(floats);
  std::memcpy(out->hidden.data(), bytes.data() + sizeof(words), floats * sizeof(float));
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------------

size_t MemoryBudget::overage() const {
  const size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget == 0) {
    return 0;
  }
  const size_t used = used_.load(std::memory_order_relaxed);
  return used > budget ? used - budget : 0;
}

void MemoryBudget::CheckPressure() {
  if (overage() == 0) {
    return;
  }
  MutexLock lock(mu_);
  // Re-check under the lock: a concurrent CheckPressure may already have
  // shrunk the tiers below budget.
  // Bounded passes: each pass asks every callback to cover the remaining
  // overage; a pass that frees nothing means everything left is pinned and
  // the gauge is allowed to overshoot (soft memory).
  for (int pass = 0; pass < 8; ++pass) {
    size_t need = overage();
    if (need == 0) {
      return;
    }
    pressure_events_.fetch_add(1, std::memory_order_relaxed);
    size_t freed_this_pass = 0;
    for (const auto& entry : callbacks_) {
      const size_t freed = entry.second(need);
      freed_this_pass += freed;
      need = overage();
      if (need == 0) {
        return;
      }
    }
    if (freed_this_pass == 0) {
      return;
    }
  }
}

size_t MemoryBudget::RegisterPressure(PressureFn fn) {
  MutexLock lock(mu_);
  const size_t id = next_callback_id_++;
  callbacks_.emplace_back(id, std::move(fn));
  return id;
}

void MemoryBudget::UnregisterPressure(size_t id) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < callbacks_.size(); ++i) {
    if (callbacks_[i].first == id) {
      callbacks_.erase(callbacks_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// ColdTier names
// ---------------------------------------------------------------------------

const char* ColdTierName(ColdTier tier) {
  switch (tier) {
    case ColdTier::kFp16:
      return "fp16";
    case ColdTier::kDisk:
      return "disk";
    case ColdTier::kRecompute:
      return "recompute";
  }
  return "unknown";
}

bool ParseColdTier(const std::string& name, ColdTier* out) {
  if (name == "fp16") {
    *out = ColdTier::kFp16;
  } else if (name == "disk") {
    *out = ColdTier::kDisk;
  } else if (name == "recompute") {
    *out = ColdTier::kRecompute;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SlabFile
// ---------------------------------------------------------------------------

bool SlabFile::Open(const std::string& path, size_t slot_payload_bytes, size_t slot_count) {
  Close();
  if (slot_payload_bytes == 0 || slot_count == 0) {
    return false;
  }
  // Seed the file with an atomically-written superblock (the checkpoint
  // write-temp + fsync + rename discipline), then reopen read-write and
  // reserve the full slot region. A crash mid-create leaves either no slab
  // or a complete superblock — never a half-written one.
  std::string superblock;
  const uint64_t words[3] = {kSlotMagic, slot_payload_bytes, slot_count};
  superblock.append(reinterpret_cast<const char*>(words), sizeof(words));
  superblock.resize(kSuperblockBytes, '\0');
  if (!WriteFileAtomic(path, superblock)) {
    return false;
  }
  const int fd = ::open(path.c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return false;
  }
  const size_t stride = sizeof(SlotHeader) + slot_payload_bytes;
  if (::ftruncate(fd, static_cast<off_t>(kSuperblockBytes + stride * slot_count)) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  slot_payload_bytes_ = slot_payload_bytes;
  slot_count_ = slot_count;
  path_ = path;
  return true;
}

void SlabFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  slot_payload_bytes_ = 0;
  slot_count_ = 0;
}

bool SlabFile::WriteSlot(size_t slot, uint64_t key, const void* payload,
                         size_t payload_bytes) {
  if (fd_ < 0 || slot >= slot_count_ || payload_bytes > slot_payload_bytes_) {
    return false;
  }
  SlotHeader header;
  header.magic = kSlotMagic;
  header.key = key;
  header.payload_bytes = payload_bytes;
  header.checksum = Fnv1a64(payload, payload_bytes);
  std::string buffer;
  buffer.reserve(sizeof(header) + payload_bytes);
  buffer.append(reinterpret_cast<const char*>(&header), sizeof(header));
  buffer.append(static_cast<const char*>(payload), payload_bytes);
  const size_t stride = sizeof(SlotHeader) + slot_payload_bytes_;
  const off_t offset = static_cast<off_t>(kSuperblockBytes + stride * slot);
  size_t written = 0;
  while (written < buffer.size()) {
    const ssize_t n = ::pwrite(fd_, buffer.data() + written, buffer.size() - written,
                               offset + static_cast<off_t>(written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

bool SlabFile::ReadSlot(size_t slot, uint64_t expected_key, std::string* out) const {
  if (fd_ < 0 || slot >= slot_count_) {
    return false;
  }
  const size_t stride = sizeof(SlotHeader) + slot_payload_bytes_;
  const off_t offset = static_cast<off_t>(kSuperblockBytes + stride * slot);
  std::vector<char> buffer(stride, '\0');
  size_t got = 0;
  while (got < stride) {
    const ssize_t n =
        ::pread(fd_, buffer.data() + got, stride - got, offset + static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;  // truncated file
    }
    got += static_cast<size_t>(n);
  }
  SlotHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  if (header.magic != kSlotMagic || header.key != expected_key ||
      header.payload_bytes > slot_payload_bytes_) {
    return false;
  }
  const char* payload = buffer.data() + sizeof(header);
  if (Fnv1a64(payload, header.payload_bytes) != header.checksum) {
    return false;  // torn slot: fail closed, the cache treats it as a miss
  }
  out->append(payload, header.payload_bytes);
  return true;
}

// ---------------------------------------------------------------------------
// StateCache
// ---------------------------------------------------------------------------

StateCache::Lease& StateCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    key_ = other.key_;
    state_ = other.state_;
    other.cache_ = nullptr;
    other.state_ = nullptr;
  }
  return *this;
}

void StateCache::Lease::Release() {
  if (cache_ != nullptr) {
    cache_->ReleaseLease(key_);
    cache_ = nullptr;
    state_ = nullptr;
  }
}

StateCache::StateCache(const StateCacheConfig& config) : config_(config) {
  if (config_.cold_tier == ColdTier::kDisk && !config_.slab_path.empty()) {
    MutexLock lock(mu_);
    if (slab_.Open(config_.slab_path, config_.slab_slot_payload_bytes, config_.slab_slots)) {
      disk_ok_.store(true, std::memory_order_relaxed);
      free_slots_.reserve(config_.slab_slots);
      for (size_t slot = config_.slab_slots; slot > 0; --slot) {
        free_slots_.push_back(slot - 1);
      }
    }
  }
  if (config_.budget != nullptr) {
    pressure_callback_id_ = config_.budget->RegisterPressure(
        [this](size_t bytes) { return ShrinkHot(bytes); });
  }
}

StateCache::~StateCache() {
  if (config_.budget != nullptr) {
    config_.budget->UnregisterPressure(pressure_callback_id_);
    // Return everything this cache still holds against the gauge.
    MutexLock lock(mu_);
    config_.budget->Release(hot_resident_ + cold_resident_);
  }
}

void StateCache::SetRecompute(RecomputeFn fn) { recompute_ = std::move(fn); }

size_t StateCache::EntryBytes(const StreamState& state) {
  return kHotEntryOverhead + state.hidden.size() * sizeof(float);
}

StateCache::Lease StateCache::Acquire(uint64_t key) { return AcquireImpl(key, false); }

StateCache::Lease StateCache::AcquireOrCreate(uint64_t key) {
  return AcquireImpl(key, true);
}

StateCache::Lease StateCache::AcquireImpl(uint64_t key, bool create) {
  size_t charge = 0;   // applied to the gauge after unlock
  size_t release = 0;  // cold-tier RAM freed by promotion, ditto
  Lease lease;
  bool try_recompute = false;
  {
    MutexLock lock(mu_);
    for (;;) {
      auto it = hot_.find(key);
      if (it == hot_.end()) {
        break;
      }
      Entry* entry = it->second.get();
      if (!entry->pinned) {
        entry->pinned = true;
        entry->ref = true;
        hot_hits_.fetch_add(1, std::memory_order_relaxed);
        return Lease(this, key, &entry->state);
      }
      // Exclusive lease held elsewhere: wait, then re-find — the entry may
      // have been released (and stayed hot; pinned entries are never
      // evicted, but the release itself may have raced a Clear()).
      lock.Wait(lease_cv_);
    }
    // Cold tier promotion.
    auto cold_it = cold_.find(key);
    if (cold_it != cold_.end()) {
      StreamState state;
      bool ok = false;
      if (config_.cold_tier == ColdTier::kFp16) {
        state.steps = cold_it->second.steps;
        state.model_version = cold_it->second.model_version;
        state.hidden.resize(cold_it->second.half.size());
        for (size_t i = 0; i < state.hidden.size(); ++i) {
          state.hidden[i] = HalfToFloat(cold_it->second.half[i]);
        }
        ok = true;
      } else if (config_.cold_tier == ColdTier::kDisk) {
        std::string bytes;
        ok = slab_.ReadSlot(cold_it->second.slot, key, &bytes) &&
             DeserializeState(bytes, &state);
        if (!ok) {
          drops_.fetch_add(1, std::memory_order_relaxed);  // torn slot
        }
      }
      release += EraseColdLocked(key);
      if (ok) {
        cold_hits_.fetch_add(1, std::memory_order_relaxed);
        InsertHotLocked(key, std::move(state), /*pinned=*/true);
        Entry* entry = hot_.find(key)->second.get();
        charge = entry->charged_bytes;
        lease = Lease(this, key, &entry->state);
      }
    }
    if (!lease.valid()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      try_recompute = recompute_ != nullptr;
      if (!try_recompute && create) {
        InsertHotLocked(key, StreamState{}, /*pinned=*/true);
        Entry* entry = hot_.find(key)->second.get();
        charge = entry->charged_bytes;
        lease = Lease(this, key, &entry->state);
      }
    }
  }
  if (!lease.valid() && try_recompute) {
    // Recompute outside the lock — the callback may be an estimator replay.
    StreamState rebuilt;
    const bool ok = recompute_(key, &rebuilt);
    MutexLock lock(mu_);
    // Re-check: a concurrent acquirer may have installed the key meanwhile.
    auto it = hot_.find(key);
    if (it != hot_.end()) {
      Entry* entry = it->second.get();
      while (entry->pinned) {
        lock.Wait(lease_cv_);
        it = hot_.find(key);
        if (it == hot_.end()) {
          break;
        }
        entry = it->second.get();
      }
      if (it != hot_.end()) {
        entry->pinned = true;
        entry->ref = true;
        hot_hits_.fetch_add(1, std::memory_order_relaxed);
        lease = Lease(this, key, &entry->state);
      }
    }
    if (!lease.valid() && (ok || create)) {
      if (ok) {
        recomputes_.fetch_add(1, std::memory_order_relaxed);
      }
      InsertHotLocked(key, ok ? std::move(rebuilt) : StreamState{}, /*pinned=*/true);
      Entry* entry = hot_.find(key)->second.get();
      charge = entry->charged_bytes;
      lease = Lease(this, key, &entry->state);
    }
  }
  if (config_.budget != nullptr) {
    if (release > 0) {
      config_.budget->Release(release);
    }
    if (charge > 0) {
      config_.budget->Reserve(charge);
    }
  }
  if (lease.valid()) {
    // Enforce the local hot cap outside the budget path too (a cache can
    // run without a global gauge).
    ShrinkHotToCap();
  }
  return lease;
}

void StateCache::ShrinkHotToCap() {
  size_t released = 0;
  {
    MutexLock lock(mu_);
    while (hot_resident_ > config_.hot_bytes) {
      const size_t freed = EvictOneLocked();
      if (freed == 0) {
        break;  // everything unpinned is gone; pinned overshoot allowed
      }
      released += freed;
    }
  }
  if (released > 0 && config_.budget != nullptr) {
    config_.budget->Release(released);
  }
}

void StateCache::ReleaseLease(uint64_t key) {
  size_t charge = 0;
  size_t release = 0;
  {
    MutexLock lock(mu_);
    auto it = hot_.find(key);
    assert(it != hot_.end());
    Entry* entry = it->second.get();
    entry->pinned = false;
    // Re-account: the state may have grown (fresh stream's first pass) or
    // shrunk while leased.
    const size_t now = EntryBytes(entry->state);
    if (now > entry->charged_bytes) {
      charge = now - entry->charged_bytes;
      hot_resident_ += charge;
    } else {
      release = entry->charged_bytes - now;
      hot_resident_ -= release;
    }
    entry->charged_bytes = now;
  }
  lease_cv_.notify_all();
  if (config_.budget != nullptr) {
    if (release > 0) {
      config_.budget->Release(release);
    }
    if (charge > 0) {
      config_.budget->Reserve(charge);
    }
  }
  ShrinkHotToCap();
}

void StateCache::InsertHotLocked(uint64_t key, StreamState state, bool pinned) {
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->state = std::move(state);
  entry->charged_bytes = EntryBytes(entry->state);
  entry->pinned = pinned;
  entry->ref = true;
  entry->ring_pos = ring_.size();
  hot_resident_ += entry->charged_bytes;
  ring_.push_back(entry.get());
  hot_.emplace(key, std::move(entry));
}

void StateCache::RemoveFromRingLocked(Entry* entry) {
  const size_t pos = entry->ring_pos;
  assert(pos < ring_.size() && ring_[pos] == entry);
  ring_[pos] = ring_.back();
  ring_[pos]->ring_pos = pos;
  ring_.pop_back();
  if (hand_ >= ring_.size()) {
    hand_ = 0;
  }
}

size_t StateCache::EvictOneLocked() {
  if (ring_.empty()) {
    return 0;
  }
  // CLOCK: give every referenced entry a second chance; two full sweeps
  // guarantee either a victim or proof that everything left is pinned.
  for (size_t scanned = 0; scanned < 2 * ring_.size(); ++scanned) {
    if (hand_ >= ring_.size()) {
      hand_ = 0;
    }
    Entry* candidate = ring_[hand_];
    if (candidate->pinned) {
      ++hand_;
      continue;
    }
    if (candidate->ref) {
      candidate->ref = false;
      ++hand_;
      continue;
    }
    const uint64_t victim_key = candidate->key;  // copied: erase frees the entry
    const size_t hot_freed = candidate->charged_bytes;
    size_t cold_freed = 0;
    const size_t cold_charged = DemoteLocked(*candidate, &cold_freed);
    RemoveFromRingLocked(candidate);
    hot_resident_ -= hot_freed;
    hot_.erase(victim_key);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    const size_t gained = hot_freed + cold_freed;
    return gained > cold_charged ? gained - cold_charged : 0;
  }
  return 0;
}

size_t StateCache::DemoteLocked(Entry& entry, size_t* cold_freed) {
  switch (config_.cold_tier) {
    case ColdTier::kFp16: {
      ColdEntry cold;
      cold.steps = entry.state.steps;
      cold.model_version = entry.state.model_version;
      cold.half.resize(entry.state.hidden.size());
      for (size_t i = 0; i < cold.half.size(); ++i) {
        cold.half[i] = FloatToHalf(entry.state.hidden[i]);
      }
      cold.charged_bytes = kColdEntryOverhead + cold.half.size() * sizeof(uint16_t);
      cold.seq = ++cold_seq_;
      const size_t charged = cold.charged_bytes;
      const uint64_t seq = cold.seq;
      cold_resident_ += charged;
      *cold_freed += EraseColdLocked(entry.key);  // replace any stale cold copy
      cold_.emplace(entry.key, std::move(cold));
      cold_fifo_.emplace_back(entry.key, seq);
      CompactColdFifoLocked();
      compressions_.fetch_add(1, std::memory_order_relaxed);
      *cold_freed += EnforceColdCapLocked();
      return charged;
    }
    case ColdTier::kDisk: {
      if (!slab_.is_open()) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      std::string bytes;
      SerializeState(entry.state, &bytes);
      if (bytes.size() > slab_.slot_payload_bytes()) {
        drops_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      size_t slot;
      uint64_t victim = 0;
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else if (PopColdVictimLocked(&victim)) {
        // Slab full: reclaim the oldest spilled entry's slot (that entry is
        // lost — counted — and its next access recomputes or warm-restarts).
        auto victim_it = cold_.find(victim);
        assert(victim_it != cold_.end());
        slot = victim_it->second.slot;
        *cold_freed += EraseColdLocked(victim);  // 0: disk entries hold no RAM
        free_slots_.pop_back();  // EraseColdLocked pushed the slot back
        drops_.fetch_add(1, std::memory_order_relaxed);
      } else {
        drops_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      if (!slab_.WriteSlot(slot, entry.key, bytes.data(), bytes.size())) {
        free_slots_.push_back(slot);
        drops_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      ColdEntry cold;
      cold.slot = slot;
      cold.steps = entry.state.steps;
      cold.model_version = entry.state.model_version;
      cold.seq = ++cold_seq_;
      const uint64_t seq = cold.seq;
      *cold_freed += EraseColdLocked(entry.key);
      cold_.emplace(entry.key, std::move(cold));
      cold_fifo_.emplace_back(entry.key, seq);
      CompactColdFifoLocked();
      spills_.fetch_add(1, std::memory_order_relaxed);
      return 0;  // disk holds the bytes; no RAM charge
    }
    case ColdTier::kRecompute:
      drops_.fetch_add(1, std::memory_order_relaxed);
      return 0;
  }
  return 0;
}

size_t StateCache::EnforceColdCapLocked() {
  size_t freed = 0;
  uint64_t victim = 0;
  while (cold_resident_ > config_.cold_bytes && PopColdVictimLocked(&victim)) {
    freed += EraseColdLocked(victim);
    drops_.fetch_add(1, std::memory_order_relaxed);
  }
  return freed;
}

size_t StateCache::EraseColdLocked(uint64_t key) {
  auto it = cold_.find(key);
  if (it == cold_.end()) {
    return 0;
  }
  const size_t freed = it->second.charged_bytes;
  cold_resident_ -= freed;
  if (config_.cold_tier == ColdTier::kDisk) {
    free_slots_.push_back(it->second.slot);
  }
  // The fifo record is left behind as stale (its seq no longer resolves);
  // PopColdVictimLocked / CompactColdFifoLocked discard it later. Scanning
  // the deque here would make every promotion O(cold entries).
  cold_.erase(it);
  return freed;
}

bool StateCache::PopColdVictimLocked(uint64_t* key) {
  while (!cold_fifo_.empty()) {
    const std::pair<uint64_t, uint64_t> front = cold_fifo_.front();
    cold_fifo_.pop_front();
    auto it = cold_.find(front.first);
    if (it != cold_.end() && it->second.seq == front.second) {
      *key = front.first;
      return true;
    }
  }
  return false;
}

void StateCache::CompactColdFifoLocked() {
  // Stale records accumulate one per promotion / re-demotion; rebuild the
  // fifo once they dominate so it stays O(live cold entries).
  if (cold_fifo_.size() <= 2 * cold_.size() + 64) {
    return;
  }
  std::deque<std::pair<uint64_t, uint64_t>> live;
  for (const auto& record : cold_fifo_) {
    auto it = cold_.find(record.first);
    if (it != cold_.end() && it->second.seq == record.second) {
      live.push_back(record);
    }
  }
  cold_fifo_.swap(live);
}

size_t StateCache::ShrinkHot(size_t bytes) {
  pressure_shrinks_.fetch_add(1, std::memory_order_relaxed);
  size_t released = 0;
  {
    MutexLock lock(mu_);
    while (released < bytes) {
      const size_t freed = EvictOneLocked();
      if (freed == 0 && ring_.empty()) {
        break;
      }
      if (freed == 0) {
        // Either everything unpinned is gone or the eviction net-charged
        // the cold tier as much as it freed; stop rather than spin.
        break;
      }
      released += freed;
    }
  }
  // Called from the budget's pressure chain (atomic-only accounting there):
  // report the release to the gauge ourselves.
  if (released > 0 && config_.budget != nullptr) {
    config_.budget->Release(released);
  }
  return released;
}

void StateCache::Clear() {
  size_t released = 0;
  {
    MutexLock lock(mu_);
    // Drop every unpinned hot entry straight out (no demotion) plus the
    // whole cold tier. Pinned entries survive — their leases still point at
    // them.
    std::vector<uint64_t> victims;
    victims.reserve(hot_.size());
    for (const auto& entry : hot_) {
      if (!entry.second->pinned) {
        victims.push_back(entry.first);
      }
    }
    for (uint64_t key : victims) {
      Entry* entry = hot_.find(key)->second.get();
      RemoveFromRingLocked(entry);
      hot_resident_ -= entry->charged_bytes;
      released += entry->charged_bytes;
      hot_.erase(key);
      drops_.fetch_add(1, std::memory_order_relaxed);
    }
    released += cold_resident_;
    cold_resident_ = 0;
    if (config_.cold_tier == ColdTier::kDisk) {
      for (const auto& cold : cold_) {
        free_slots_.push_back(cold.second.slot);
      }
    }
    drops_.fetch_add(cold_.size(), std::memory_order_relaxed);
    cold_.clear();
    cold_fifo_.clear();
  }
  if (released > 0 && config_.budget != nullptr) {
    config_.budget->Release(released);
  }
}

StateCacheCounters StateCache::Counters() const {
  StateCacheCounters counters;
  counters.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  counters.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  counters.misses = misses_.load(std::memory_order_relaxed);
  counters.recomputes = recomputes_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.compressions = compressions_.load(std::memory_order_relaxed);
  counters.spills = spills_.load(std::memory_order_relaxed);
  counters.drops = drops_.load(std::memory_order_relaxed);
  counters.pressure_shrinks = pressure_shrinks_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  counters.hot_entries = hot_.size();
  counters.cold_entries = cold_.size();
  counters.hot_resident_bytes = hot_resident_;
  counters.cold_resident_bytes = cold_resident_;
  return counters;
}

}  // namespace deeprest
