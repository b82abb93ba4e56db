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
#include <deque>
#include <memory>

#include "src/core/estimator.h"
#include "src/core/thread_annotations.h"
#include "src/serve/state_cache.h"

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
  // The unique_ptr overload still owns a mutable model, so it is the one
  // place the registry can apply its storage policy before the snapshot
  // becomes immutable.
  uint64_t Publish(std::unique_ptr<DeepRestEstimator> model) {
    if (model != nullptr) {
      ApplyStoragePolicy(*model);
    }
    return Publish(std::shared_ptr<const DeepRestEstimator>(std::move(model)));
  }

  // fp16 storage policy for models published through this registry: when
  // enabled, ApplyStoragePolicy rounds a model's parameters to binary16
  // precision in place (src/nn/quant.h) before publication — halving the
  // effective parameter precision (and the checkpoint size via the fp16
  // serialization format) while compute stays fp32. Only affects models
  // passed through the mutable publication paths (the unique_ptr Publish
  // overload and ContinualLearner's clone pipeline); a shared_ptr publish or
  // Restore is already immutable and is installed as-is.
  void SetFp16Storage(bool enabled);
  bool fp16_storage() const;
  // Applies the current policy to a still-mutable model (no-op when off).
  // Callers that train a clone apply this BEFORE converting to
  // shared_ptr<const> — see ContinualLearner.
  void ApplyStoragePolicy(DeepRestEstimator& model) const;

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

  // --- Retained-clone tiering (pluggable storage; ROADMAP refactor hook) ---
  //
  // With retention enabled, each Publish serializes the model it replaces
  // into `store` (SnapshotStore: in-RAM budget-charged or on-disk
  // checksummed — see state_cache.h) keyed by version, keeping at most
  // `max_retained` versions (oldest erased first). Snapshot(version)
  // rematerializes a retained clone by deserializing it — so expert clones
  // no longer pin live model objects in RAM, only their (fp16-format, when
  // the storage policy is on) serialized bytes, and those can spill to disk
  // or drop under pressure; a dropped version is a counted miss, never
  // wrong data. Restore() purges every retained clone (the store's budget
  // charge is released exactly once): a checkpoint restore must not leave
  // stale pre-restore experts resurrectable.
  struct RetentionCounters {
    uint64_t retained = 0;        // versions currently indexed
    uint64_t retain_hits = 0;     // Snapshot(version) served from the store
    uint64_t retain_misses = 0;   // version unknown or dropped by the store
    uint64_t retain_evictions = 0;  // max_retained displacements
    size_t retained_bytes = 0;    // store->resident_bytes()
  };
  // `store` must outlive the registry; nullptr disables retention.
  void SetRetention(SnapshotStore* store, size_t max_retained)
      DEEPREST_EXCLUDES(mu_, retain_mu_);
  // Current() when `version` is current; otherwise a clone rematerialized
  // from the retention store (invalid snapshot on a miss).
  ModelSnapshot Snapshot(uint64_t version) const DEEPREST_EXCLUDES(mu_, retain_mu_);
  RetentionCounters retention_counters() const DEEPREST_EXCLUDES(retain_mu_);

 private:
  // Serializes `model` into the retention store under `version`, evicting
  // past max_retained. Skips versions at or below the restore barrier so a
  // Publish racing a Restore cannot resurrect a pre-restore clone.
  void RetainClone(const std::shared_ptr<const DeepRestEstimator>& model,
                   uint64_t version) DEEPREST_EXCLUDES(mu_, retain_mu_);

  mutable Mutex mu_;
  // The RCU publication point: writers replace it wholesale, readers copy it
  // out; the pointed-to estimator is immutable after publication, so only
  // the snapshot value itself needs the guard.
  ModelSnapshot current_ DEEPREST_GUARDED_BY(mu_);
  bool fp16_storage_ DEEPREST_GUARDED_BY(mu_) = false;

  // Retention state. Lock order: mu_ before retain_mu_ (Publish installs
  // the new model under mu_, then retains the old one under retain_mu_
  // only); serialization/deserialization never runs under mu_, so readers
  // are not stalled by a multi-megabyte clone write.
  mutable Mutex retain_mu_ DEEPREST_ACQUIRED_AFTER(mu_);
  SnapshotStore* store_ DEEPREST_GUARDED_BY(retain_mu_) = nullptr;
  size_t max_retained_ DEEPREST_GUARDED_BY(retain_mu_) = 0;
  // Versions currently in the store, oldest first (bounded by max_retained_).
  std::deque<uint64_t> retained_versions_ DEEPREST_GUARDED_BY(retain_mu_);
  // Restore() raises this to its version: RetainClone drops anything at or
  // below it, closing the Publish-vs-Restore race window.
  uint64_t restore_barrier_ DEEPREST_GUARDED_BY(retain_mu_) = 0;
  mutable uint64_t retain_hits_ DEEPREST_GUARDED_BY(retain_mu_) = 0;
  mutable uint64_t retain_misses_ DEEPREST_GUARDED_BY(retain_mu_) = 0;
  uint64_t retain_evictions_ DEEPREST_GUARDED_BY(retain_mu_) = 0;
};

}  // namespace deeprest

#endif  // SRC_SERVE_MODEL_REGISTRY_H_
