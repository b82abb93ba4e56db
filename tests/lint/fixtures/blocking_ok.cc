// Fixture: lock-safe blocking — the disk write happens after the lock scope
// closes, and the only wait is the sanctioned capital-W MutexLock::Wait
// wrapper (which releases the lock while parked). blocking-under-lock must
// stay silent.
#include "src/core/thread_annotations.h"

struct SlabFile {
  bool WriteSlot(unsigned long slot, unsigned long key, const void* payload,
                 unsigned long bytes);
};

struct CondVar {};

namespace deeprest {

class Polite {
 public:
  void Tick(unsigned long key) {
    {
      MutexLock lock(polite_mu_);
      pending_ = true;
      lock.Wait(wake_);
    }
    slab_->WriteSlot(0, key, &key, sizeof(key));
  }

 private:
  Mutex polite_mu_;
  CondVar wake_;
  bool pending_ DEEPREST_GUARDED_BY(polite_mu_);
  SlabFile* slab_;
};

}  // namespace deeprest
