// Crash-safe checkpointing of the serving model state.
//
// A checkpoint captures the ModelRegistry head (model weights + version) and
// the ContinualLearner's progress (trained_through), so a restarted service
// resumes from the last published fine-tune instead of retraining from
// scratch. Writes are atomic in the classic write-temp + fsync + rename
// sequence, and the previous checkpoint is rotated to `<path>.prev` before
// the rename — at every instant there is a complete checkpoint on disk:
//
//   serialize -> <path>.tmp -> fsync -> rename(<path>, <path>.prev)
//             -> rename(<path>.tmp, <path>) -> fsync(dir)
//
// Every file carries a magic tag, the payload size, and an FNV-1a checksum
// over the payload; recovery validates all three and falls back to
// `<path>.prev` when the primary is truncated, torn, or corrupt (see the
// kill-and-restart test in tests/serve/checkpoint_test.cc).
#ifndef SRC_SERVE_CHECKPOINT_H_
#define SRC_SERVE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/core/estimator.h"

namespace deeprest {

struct CheckpointData {
  uint64_t version = 0;         // registry version the model was published as
  uint64_t trained_through = 0; // learner progress (windows [0, n) trained)
  std::shared_ptr<const DeepRestEstimator> model;
};

// Where a recovered checkpoint came from.
enum class RecoverySource {
  kNone,      // neither file was readable/valid
  kPrimary,   // <path>
  kPrevious,  // <path>.prev (primary missing or failed validation)
};

const char* RecoverySourceName(RecoverySource source);

// FNV-1a 64-bit over a byte buffer (checkpoint integrity checksum).
uint64_t Fnv1a64(const void* data, size_t size);

// Atomic small-file replacement: write-temp + fsync + rename + dir-fsync,
// the same discipline WriteCheckpoint uses (minus the .prev rotation). At
// every instant `path` is either absent, the old contents, or the complete
// new contents — never a torn write. Exported for the state-cache disk slab
// superblock (state_cache.h).
bool WriteFileAtomic(const std::string& path, const std::string& bytes);

// Atomically replaces the checkpoint at `path` (rotating any existing one to
// `<path>.prev`). Returns false — leaving the previous checkpoint intact —
// on serialization or I/O failure.
bool WriteCheckpoint(const std::string& path, const CheckpointData& data);

// Reads and validates exactly `path` (magic, size, checksum, deserializable
// model). Returns false without touching `*out` on any mismatch.
bool ReadCheckpoint(const std::string& path, CheckpointData* out);

// Recovery policy: try `path`, then `<path>.prev`. The first file that
// passes full validation wins.
RecoverySource RecoverCheckpoint(const std::string& path, CheckpointData* out);

}  // namespace deeprest

#endif  // SRC_SERVE_CHECKPOINT_H_
