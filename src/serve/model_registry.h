// Hot-swappable registry of versioned, immutable DeepRest model snapshots.
//
// RCU-style publication: readers grab a shared_ptr to the current snapshot
// (a short critical section copying one pointer) and then use it lock-free
// for as long as they like; writers build a complete replacement model off
// to the side and publish it with one pointer swap. A snapshot is never
// mutated after publication — the const DeepRestEstimator inference surface
// is multi-thread safe (see src/nn/layers.h) — so a request that captured
// version N keeps computing against version N even while N+1 is being served
// to new requests, and N is freed when its last in-flight reader drops the
// pointer.
// This is what guarantees no request ever mixes weights from two versions.
#ifndef SRC_SERVE_MODEL_REGISTRY_H_
#define SRC_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>

#include "src/core/estimator.h"
#include "src/core/thread_annotations.h"

namespace deeprest {

// One published model version. Copyable value: the estimator is shared and
// immutable.
struct ModelSnapshot {
  uint64_t version = 0;
  std::shared_ptr<const DeepRestEstimator> model;

  bool valid() const { return model != nullptr; }
};

class ModelRegistry {
 public:
  // Publishes a new current model; returns its version (1, 2, ...). The
  // model must be trained and must not be mutated afterwards.
  uint64_t Publish(std::shared_ptr<const DeepRestEstimator> model);

  // Startup recovery: installs a checkpointed model under its original
  // version number. Forward-only — fails (returns false) when the registry
  // already serves an equal-or-newer version, so a stale checkpoint can never
  // roll a live registry backwards. Subsequent Publish calls continue from
  // the restored version.
  bool Restore(std::shared_ptr<const DeepRestEstimator> model, uint64_t version);

  // The current snapshot (invalid before the first Publish). Readers hold
  // the returned shared_ptr for the full lifetime of one request.
  ModelSnapshot Current() const;

  uint64_t version() const;        // 0 before the first Publish
  uint64_t publish_count() const;  // == version(): total swaps so far

 private:
  mutable Mutex mu_;
  // The RCU publication point: writers replace it wholesale, readers copy it
  // out; the pointed-to estimator is immutable after publication, so only
  // the snapshot value itself needs the guard.
  ModelSnapshot current_ DEEPREST_GUARDED_BY(mu_);
};

}  // namespace deeprest

#endif  // SRC_SERVE_MODEL_REGISTRY_H_
