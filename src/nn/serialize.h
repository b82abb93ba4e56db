// Binary (de)serialization of a ParameterStore, so trained DeepRest models can
// be checkpointed and restored (the paper reports 801.5 kB per expert; the
// format below is a simple length-prefixed name/shape/data stream).
#ifndef SRC_NN_SERIALIZE_H_
#define SRC_NN_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "src/nn/layers.h"

namespace deeprest {

// Writes all parameters (names, shapes, float data) to the stream.
// Returns false on I/O failure.
bool SaveParameters(const ParameterStore& store, std::ostream& out);
bool SaveParametersToFile(const ParameterStore& store, const std::string& path);

// Format v2: identical layout but every tensor is stored as IEEE binary16
// (half the bytes, 11 significand bits). The v1 fp32 writer above is left
// byte-for-byte untouched so existing checkpoints stay stable.
bool SaveParametersFp16(const ParameterStore& store, std::ostream& out);
bool SaveParametersFp16ToFile(const ParameterStore& store, const std::string& path);

// Restores parameter values by name into an already-constructed store. Every
// parameter present in the store must be found in the stream with a matching
// shape; extra entries in the stream are skipped. Accepts both format v1
// (fp32) and v2 (fp16; entries are widened back to fp32 on load). Returns
// false on mismatch or I/O failure, and then leaves the store unchanged;
// no header field sizes an allocation, so a corrupt stream fails closed.
bool LoadParameters(ParameterStore& store, std::istream& in);
bool LoadParametersFromFile(ParameterStore& store, const std::string& path);

// Serialized size in bytes (for the scalability study of paper section 6).
size_t SerializedSize(const ParameterStore& store);

}  // namespace deeprest

#endif  // SRC_NN_SERIALIZE_H_
