#include "src/serve/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

namespace deeprest {

namespace {

constexpr char kMagic[8] = {'D', 'R', 'C', 'K', 'P', 'T', '0', '1'};

void AppendU64(std::string& out, uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(v));
}

bool ParseU64(const std::string& in, size_t& offset, uint64_t* v) {
  if (offset + sizeof(*v) > in.size()) {
    return false;
  }
  std::memcpy(v, in.data() + offset, sizeof(*v));
  offset += sizeof(*v);
  return true;
}

// Writes the full buffer to a fresh file and fsyncs it before close, so the
// bytes are durable before the rename makes them visible.
bool WriteFileDurable(const std::string& path, const std::string& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return false;
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

// Fsync the containing directory so the rename itself is durable.
void SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

bool WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  if (!WriteFileDurable(tmp, bytes)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  SyncParentDir(path);
  return true;
}

const char* RecoverySourceName(RecoverySource source) {
  switch (source) {
    case RecoverySource::kNone:
      return "none";
    case RecoverySource::kPrimary:
      return "primary";
    case RecoverySource::kPrevious:
      return "previous";
  }
  return "unknown";
}

uint64_t Fnv1a64(const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

bool WriteCheckpoint(const std::string& path, const CheckpointData& data) {
  if (data.model == nullptr) {
    return false;
  }
  std::ostringstream model_stream;
  if (!data.model->SaveToStream(model_stream)) {
    return false;
  }
  const std::string model_bytes = model_stream.str();

  std::string payload;
  payload.reserve(3 * sizeof(uint64_t) + model_bytes.size());
  AppendU64(payload, data.version);
  AppendU64(payload, data.trained_through);
  AppendU64(payload, static_cast<uint64_t>(model_bytes.size()));
  payload += model_bytes;

  std::string file;
  file.reserve(sizeof(kMagic) + 2 * sizeof(uint64_t) + payload.size());
  file.append(kMagic, sizeof(kMagic));
  AppendU64(file, static_cast<uint64_t>(payload.size()));
  AppendU64(file, Fnv1a64(payload.data(), payload.size()));
  file += payload;

  const std::string tmp = path + ".tmp";
  if (!WriteFileDurable(tmp, file)) {
    std::remove(tmp.c_str());
    return false;
  }
  // Rotate the current checkpoint to .prev, then swing the new one in. A
  // crash between the renames leaves only .prev — which recovery handles.
  const std::string prev = path + ".prev";
  std::rename(path.c_str(), prev.c_str());  // ENOENT on first write is fine
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  SyncParentDir(path);
  return true;
}

bool ReadCheckpoint(const std::string& path, CheckpointData* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();

  if (file.size() < sizeof(kMagic) + 2 * sizeof(uint64_t) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  size_t offset = sizeof(kMagic);
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  if (!ParseU64(file, offset, &payload_size) || !ParseU64(file, offset, &checksum)) {
    return false;
  }
  if (file.size() - offset != payload_size) {
    return false;  // truncated or trailing garbage
  }
  if (Fnv1a64(file.data() + offset, payload_size) != checksum) {
    return false;  // torn / corrupted payload
  }

  CheckpointData data;
  uint64_t model_size = 0;
  if (!ParseU64(file, offset, &data.version) || !ParseU64(file, offset, &data.trained_through) ||
      !ParseU64(file, offset, &model_size)) {
    return false;
  }
  if (file.size() - offset != model_size) {
    return false;
  }
  std::istringstream model_stream(file.substr(offset));
  auto model = std::make_unique<DeepRestEstimator>();
  if (!model->LoadFromStream(model_stream)) {
    return false;
  }
  data.model = std::shared_ptr<const DeepRestEstimator>(std::move(model));
  *out = std::move(data);
  return true;
}

RecoverySource RecoverCheckpoint(const std::string& path, CheckpointData* out) {
  if (ReadCheckpoint(path, out)) {
    return RecoverySource::kPrimary;
  }
  if (ReadCheckpoint(path + ".prev", out)) {
    return RecoverySource::kPrevious;
  }
  return RecoverySource::kNone;
}

}  // namespace deeprest
