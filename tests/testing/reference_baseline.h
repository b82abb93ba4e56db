// The resource-aware DL baseline (src/baselines) on the tape: its Learn and
// Forecast as they ran before the baseline moved to the lane layout, each
// GRU step composed by GruStepReference. ResourceAwareDl must reproduce both
// bit for bit. Test-only, like the rest of the oracle.
#ifndef TESTS_TESTING_REFERENCE_BASELINE_H_
#define TESTS_TESTING_REFERENCE_BASELINE_H_

#include <cstddef>

#include "src/baselines/baselines.h"

namespace deeprest {

// Test-side peer of ResourceAwareDl, which befriends it.
class ReferenceBaseline {
 public:
  // Trains a model that Learn built with zero epochs over the same metrics
  // range, for `epochs` epochs on the tape: per expert, one graph over the
  // whole pass (the state detached after each window t with
  // t % (wpd / 2 + 1) == 0) whose mean pinball loss runs Backward, the
  // leaves' gradients copied out, then the production ClipGradNorm and Adam
  // step over the whole store.
  static void Learn(ResourceAwareDl& model, const MetricsStore& metrics, size_t from,
                    size_t to, size_t epochs);

  // Forecast on the tape, one expert at a time.
  static EstimateMap Forecast(const ResourceAwareDl& model, size_t horizon);

  static const ParameterStore& Parameters(const ResourceAwareDl& model);
};

}  // namespace deeprest

#endif  // TESTS_TESTING_REFERENCE_BASELINE_H_
