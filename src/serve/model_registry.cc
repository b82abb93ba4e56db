#include "src/serve/model_registry.h"

namespace deeprest {

// Publish and Restore swap the new model into place instead of assigning it:
// the displaced model leaves in the by-value parameter, which is destroyed
// after the lock, so a model whose last reference this was is freed outside
// mu_ and never stalls Current() readers.
uint64_t ModelRegistry::Publish(std::shared_ptr<const DeepRestEstimator> model) {
  MutexLock lock(mu_);
  current_.model.swap(model);
  return ++current_.version;
}

bool ModelRegistry::Restore(std::shared_ptr<const DeepRestEstimator> model, uint64_t version) {
  MutexLock lock(mu_);
  if (model == nullptr || version == 0 || version <= current_.version) {
    return false;
  }
  current_.model.swap(model);
  current_.version = version;
  return true;
}

ModelSnapshot ModelRegistry::Current() const {
  MutexLock lock(mu_);
  return current_;
}

uint64_t ModelRegistry::version() const {
  MutexLock lock(mu_);
  return current_.version;
}

uint64_t ModelRegistry::publish_count() const { return version(); }

}  // namespace deeprest
