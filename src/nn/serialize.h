// Binary (de)serialization of a ParameterStore, so trained DeepRest models can
// be checkpointed and restored (the paper reports 801.5 kB per expert; the
// format below is a simple length-prefixed name/shape/data stream).
#ifndef SRC_NN_SERIALIZE_H_
#define SRC_NN_SERIALIZE_H_

#include <iosfwd>

#include "src/nn/layers.h"

namespace deeprest {

// Writes all parameters (names, shapes, fp32 data) to the stream as format
// version 1. Returns false on I/O failure.
bool SaveParameters(const ParameterStore& store, std::ostream& out);

// Restores parameter values by name into an already-constructed store. Every
// parameter present in the store must be found in the stream with a matching
// shape; extra entries in the stream are skipped. Only format version 1 is
// accepted. Returns false on mismatch or I/O failure, and then leaves the
// store unchanged; no header field sizes an allocation, so a corrupt stream
// fails closed.
bool LoadParameters(ParameterStore& store, std::istream& in);

}  // namespace deeprest

#endif  // SRC_NN_SERIALIZE_H_
