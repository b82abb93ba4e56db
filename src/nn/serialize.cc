#include "src/nn/serialize.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <vector>

#include "src/nn/quant.h"

namespace deeprest {

namespace {

constexpr uint32_t kMagic = 0x44525354;  // "DRST"
constexpr uint32_t kVersion = 1;        // fp32 tensor data
constexpr uint32_t kVersionFp16 = 2;    // binary16 tensor data

void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::istream& in, uint32_t& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  return static_cast<bool>(in);
}

}  // namespace

bool SaveParameters(const ParameterStore& store, std::ostream& out) {
  WriteU32(out, kMagic);
  WriteU32(out, kVersion);
  WriteU32(out, static_cast<uint32_t>(store.entries().size()));
  for (const auto& e : store.entries()) {
    WriteU32(out, static_cast<uint32_t>(e.name.size()));
    out.write(e.name.data(), static_cast<std::streamsize>(e.name.size()));
    const Matrix& m = e.value;
    WriteU32(out, static_cast<uint32_t>(m.rows()));
    WriteU32(out, static_cast<uint32_t>(m.cols()));
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(float)));
  }
  return static_cast<bool>(out);
}

bool SaveParametersToFile(const ParameterStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  return out && SaveParameters(store, out);
}

bool SaveParametersFp16(const ParameterStore& store, std::ostream& out) {
  WriteU32(out, kMagic);
  WriteU32(out, kVersionFp16);
  WriteU32(out, static_cast<uint32_t>(store.entries().size()));
  for (const auto& e : store.entries()) {
    WriteU32(out, static_cast<uint32_t>(e.name.size()));
    out.write(e.name.data(), static_cast<std::streamsize>(e.name.size()));
    const HalfMatrix h = ToHalf(e.value);
    WriteU32(out, static_cast<uint32_t>(h.rows));
    WriteU32(out, static_cast<uint32_t>(h.cols));
    out.write(reinterpret_cast<const char*>(h.data.data()),
              static_cast<std::streamsize>(h.data.size() * sizeof(uint16_t)));
  }
  return static_cast<bool>(out);
}

bool SaveParametersFp16ToFile(const ParameterStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  return out && SaveParametersFp16(store, out);
}

bool LoadParameters(ParameterStore& store, std::istream& in) {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!ReadU32(in, magic) || magic != kMagic || !ReadU32(in, version) ||
      (version != kVersion && version != kVersionFp16) || !ReadU32(in, count)) {
    return false;
  }
  const bool fp16 = version == kVersionFp16;
  auto& entries = store.entries();
  std::map<std::string, size_t> index;
  for (size_t p = 0; p < entries.size(); ++p) {
    index.emplace(entries[p].name, p);
  }
  // Nothing is sized from a header field: an entry's shape must be its
  // parameter's before its data is read, and an entry the store does not
  // know (or a repeat, where the first one wins) is skipped unread. The store
  // changes only once every parameter has arrived.
  std::vector<Matrix> values(entries.size());
  std::vector<bool> found(entries.size(), false);
  HalfMatrix half;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadU32(in, name_len) || name_len > (1u << 20)) {
      return false;
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    uint32_t rows = 0;
    uint32_t cols = 0;
    if (!ReadU32(in, rows) || !ReadU32(in, cols)) {
      return false;
    }
    const auto it = index.find(name);
    if (it == index.end() || found[it->second]) {
      // No stream holds 2^60 values; below that the byte count fits a
      // streamsize.
      const uint64_t elements = uint64_t{rows} * cols;
      if (elements > (uint64_t{1} << 60)) {
        return false;
      }
      const auto bytes = static_cast<std::streamsize>(
          elements * (fp16 ? sizeof(uint16_t) : sizeof(float)));
      if (!in.ignore(bytes) || in.gcount() != bytes) {
        return false;
      }
      continue;
    }
    const Matrix& shape = entries[it->second].value;
    if (rows != shape.rows() || cols != shape.cols()) {
      return false;
    }
    Matrix& m = values[it->second];
    if (fp16) {
      half.rows = rows;
      half.cols = cols;
      half.data.resize(shape.size());
      in.read(reinterpret_cast<char*>(half.data.data()),
              static_cast<std::streamsize>(half.data.size() * sizeof(uint16_t)));
      m = FromHalf(half);
    } else {
      m.SetShape(rows, cols);
      in.read(reinterpret_cast<char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(float)));
    }
    if (!in) {
      return false;
    }
    found[it->second] = true;
  }
  if (std::find(found.begin(), found.end(), false) != found.end()) {
    return false;
  }
  for (size_t p = 0; p < entries.size(); ++p) {
    entries[p].value = std::move(values[p]);
  }
  return true;
}

bool LoadParametersFromFile(ParameterStore& store, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in && LoadParameters(store, in);
}

size_t SerializedSize(const ParameterStore& store) {
  size_t bytes = 12;  // magic + version + count
  for (const auto& e : store.entries()) {
    bytes += 4 + e.name.size() + 8 + e.value.size() * sizeof(float);
  }
  return bytes;
}

}  // namespace deeprest
