// Fixture: must trip resource-pairing — the lease Acquire returns is
// discarded, so it is destroyed before the statement ends and the pin meant
// to keep the entry resident is released at once.
struct Lease {
  bool valid() const;
};

struct StateCache {
  Lease Acquire(unsigned long key);
};

void Use(unsigned long key);

void WarmThenUse(StateCache& cache, unsigned long key, bool warm) {
  if (warm) {
    cache.Acquire(key);
  }
  Use(key);
}
