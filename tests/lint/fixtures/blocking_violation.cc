// Fixture: must trip blocking-under-lock — SlabFile::WriteSlot() is disk
// I/O, so calling it while holding spill_mu_ stalls every thread waiting on
// that lock for as long as the write takes.
#include "src/core/thread_annotations.h"

struct SlabFile {
  bool WriteSlot(unsigned long slot, unsigned long key, const void* payload,
                 unsigned long bytes);
};

namespace deeprest {

class Spiller {
 public:
  void Spill(unsigned long key) {
    MutexLock lock(spill_mu_);
    slab_->WriteSlot(0, key, &key, sizeof(key));
  }

 private:
  Mutex spill_mu_;
  SlabFile* slab_ DEEPREST_GUARDED_BY(spill_mu_);
};

}  // namespace deeprest
