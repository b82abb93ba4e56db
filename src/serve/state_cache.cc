#include "src/serve/state_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>

#include "src/serve/checkpoint.h"

namespace deeprest {

namespace {

constexpr uint64_t kSlotMagic = 0x44525354534C4231ULL;  // "DRSTSLB1"

// Slab superblock region: one page holding {magic, slot payload bytes, slot
// count}; slots start right after it.
constexpr size_t kSuperblockBytes = 4096;

// Fixed per-entry overhead counted on top of the payload: map node, Entry
// struct, ring slot. An estimate, not an exact malloc audit — the caps are
// soft memory, what matters is that 10^6 entries register as ~10^6 * (128 +
// overhead) bytes, not as zero. kColdEntryOverhead (state_cache.h) is the
// same kind of estimate for a spilled entry's index record.
constexpr size_t kHotEntryOverhead = 112;

void SerializeState(const StreamState& state, std::string* out) {
  out->clear();
  out->reserve(StatePayloadBytes(state.hidden.size()));
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
  if (!config_.slab_path.empty()) {
    MutexLock lock(mu_);
    if (slab_.Open(config_.slab_path, config_.slab_slot_payload_bytes, config_.slab_slots)) {
      disk_ok_.store(true, std::memory_order_relaxed);
      free_slots_.reserve(config_.slab_slots);
      for (size_t slot = config_.slab_slots; slot > 0; --slot) {
        free_slots_.push_back(slot - 1);
      }
    }
  }
}

size_t StateCache::EntryBytes(const StreamState& state) {
  return kHotEntryOverhead + state.hidden.size() * sizeof(float);
}

StateCache::Lease StateCache::AcquireOrCreate(uint64_t key) {
  Lease lease;
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
      // Exclusive lease held elsewhere: wait, then re-find — the release
      // that wakes us may have evicted the entry on its way out.
      lock.Wait(lease_cv_);
    }
    // Cold tier promotion; a miss (or a torn slot) creates a fresh entry.
    StreamState state;
    bool promoted = false;
    auto cold_it = cold_.find(key);
    if (cold_it != cold_.end()) {
      std::string bytes;
      // The slab read stays under mu_ on purpose: the lease protocol pins
      // the entry and the CLOCK hand advances under the same mutex, so
      // reading outside it would race eviction.
      // deeprest-lint: allow(blocking-under-lock)
      promoted = slab_.ReadSlot(cold_it->second.slot, key, &bytes) &&
                 DeserializeState(bytes, &state);
      EraseColdLocked(key);
      if (!promoted) {
        drops_.fetch_add(1, std::memory_order_relaxed);  // torn slot
      }
    }
    (promoted ? cold_hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    InsertHotLocked(key, std::move(state), /*pinned=*/true);
    lease = Lease(this, key, &hot_.find(key)->second->state);
  }
  ShrinkHotToCap();
  return lease;
}

void StateCache::ShrinkHotToCap() {
  MutexLock lock(mu_);
  while (hot_resident_ > config_.hot_bytes) {
    if (!EvictOneLocked()) {
      break;  // everything unpinned is gone; pinned overshoot allowed
    }
  }
}

void StateCache::ReleaseLease(uint64_t key) {
  {
    MutexLock lock(mu_);
    auto it = hot_.find(key);
    assert(it != hot_.end());
    Entry* entry = it->second.get();
    entry->pinned = false;
    // Re-account: the state may have grown (fresh stream's first pass) or
    // shrunk while leased.
    const size_t now = EntryBytes(entry->state);
    hot_resident_ = hot_resident_ - entry->resident_bytes + now;
    entry->resident_bytes = now;
  }
  lease_cv_.notify_all();
  ShrinkHotToCap();
}

void StateCache::InsertHotLocked(uint64_t key, StreamState state, bool pinned) {
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->state = std::move(state);
  entry->resident_bytes = EntryBytes(entry->state);
  entry->pinned = pinned;
  entry->ref = true;
  entry->ring_pos = ring_.size();
  hot_resident_ += entry->resident_bytes;
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

bool StateCache::EvictOneLocked() {
  if (ring_.empty()) {
    return false;
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
    DemoteLocked(*candidate);
    RemoveFromRingLocked(candidate);
    hot_resident_ -= candidate->resident_bytes;
    hot_.erase(victim_key);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void StateCache::DemoteLocked(Entry& entry) {
  if (!slab_.is_open()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string bytes;
  SerializeState(entry.state, &bytes);
  if (bytes.size() > slab_.slot_payload_bytes()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  size_t slot;
  uint64_t victim = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else if (PopColdVictimLocked(&victim)) {
    // Slab full: reclaim the oldest spilled entry's slot (that entry is
    // lost — counted — and its next access warm-restarts).
    auto victim_it = cold_.find(victim);
    assert(victim_it != cold_.end());
    slot = victim_it->second.slot;
    EraseColdLocked(victim);
    free_slots_.pop_back();  // EraseColdLocked pushed the slot back
    drops_.fetch_add(1, std::memory_order_relaxed);
  } else {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!slab_.WriteSlot(slot, entry.key, bytes.data(), bytes.size())) {
    free_slots_.push_back(slot);
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ColdEntry cold;
  cold.slot = slot;
  cold.seq = ++cold_seq_;
  EraseColdLocked(entry.key);
  cold_.emplace(entry.key, cold);
  cold_fifo_.emplace_back(entry.key, cold.seq);
  CompactColdFifoLocked();
  spills_.fetch_add(1, std::memory_order_relaxed);
}

void StateCache::EraseColdLocked(uint64_t key) {
  auto it = cold_.find(key);
  if (it == cold_.end()) {
    return;
  }
  free_slots_.push_back(it->second.slot);
  // The fifo record is left behind as stale (its seq no longer resolves);
  // PopColdVictimLocked / CompactColdFifoLocked discard it later. Scanning
  // the deque here would make every promotion O(cold entries).
  cold_.erase(it);
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

StateCacheCounters StateCache::Counters() const {
  StateCacheCounters counters;
  counters.hot_hits = hot_hits_.load(std::memory_order_relaxed);
  counters.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  counters.misses = misses_.load(std::memory_order_relaxed);
  counters.evictions = evictions_.load(std::memory_order_relaxed);
  counters.spills = spills_.load(std::memory_order_relaxed);
  counters.drops = drops_.load(std::memory_order_relaxed);
  MutexLock lock(mu_);
  counters.hot_entries = hot_.size();
  counters.cold_entries = cold_.size();
  counters.hot_resident_bytes = hot_resident_;
  counters.cold_resident_bytes = cold_.size() * kColdEntryOverhead;
  return counters;
}

}  // namespace deeprest
