// Fixture: every lease is bound — to a named local, through a pointer, in a
// condition, in a loop body, or handed to the caller — so each pin lasts as
// long as its holder. resource-pairing must stay silent.
struct Lease {
  bool valid() const;
};

struct StateCache {
  Lease Acquire(unsigned long key);
  Lease AcquireOrCreate(unsigned long key);
};

void Use(const Lease& lease);

void BoundLeases(StateCache& cache, StateCache* shared, unsigned long key, int n) {
  Lease lease = cache.Acquire(key);
  Use(lease);
  if (cache.Acquire(key).valid()) {
    return;
  }
  for (int i = 0; i < n; ++i) {
    const Lease pinned = shared->AcquireOrCreate(key + i);
    Use(pinned);
  }
}

Lease HandedOn(StateCache& cache, unsigned long key) {
  return cache.AcquireOrCreate(key);
}
