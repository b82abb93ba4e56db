// Trace synthesizer (paper section 4.4).
//
// For resource-allocation queries the application has not served the traffic
// yet, so no real traces exist. The synthesizer learns the empirical
// distribution of trace shapes conditioned on each API during application
// learning — Prob(P | API) — and samples from it to convert a hypothetical
// RPS series into synthetic traces for the feature extractor.
//
// Every synthetic trace is a copy of one learned shape, so its feature
// vector under the frozen extractor is fixed at learn time. CompileFeatures
// stores each shape's sparse feature counts, and SynthesizeFeatures turns a
// traffic series straight into the feature series that synthesizing and
// extracting would produce, without building a single trace: this is the
// production mode-1 path. SynthesizeSeries stays as the trace-level API and
// as the oracle the tests hold SynthesizeFeatures to.
#ifndef SRC_CORE_TRACE_SYNTHESIZER_H_
#define SRC_CORE_TRACE_SYNTHESIZER_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/nn/rng.h"
#include "src/trace/collector.h"
#include "src/workload/traffic.h"

namespace deeprest {

class FeatureExtractor;

class TraceSynthesizer {
 public:
  // Records one learning-phase trace under its originating API.
  void LearnTrace(const Trace& trace);
  // Learns from every trace in [from, to).
  void LearnRange(const TraceCollector& traces, size_t from, size_t to);

  // Number of distinct trace shapes learned for an API.
  size_t ShapeCountFor(const std::string& api) const;
  // Total learning traces observed for an API.
  size_t TraceCountFor(const std::string& api) const;

  // Samples one synthetic trace for the API (empty Trace if unknown API).
  Trace Synthesize(const std::string& api, Rng& rng) const;

  // Converts a whole query traffic series into synthetic traces, Poisson-
  // sampling the per-window request counts: windows [0, traffic.windows())
  // are written at offset + t.
  void SynthesizeSeries(const TrafficSeries& traffic, size_t offset, Rng& rng,
                        TraceCollector& out) const;

  // Gives every learned shape its sparse feature counts under `extractor`
  // (Alg. 2 over one copy of the shape). The table is derived, never
  // serialized: rerun after anything that adds shapes (LearnTrace,
  // LearnRange, Load) or changes the extractor's feature space.
  void CompileFeatures(const FeatureExtractor& extractor);

  // The feature series ExtractSeries(SynthesizeSeries(traffic, 0, rng), 0,
  // traffic.windows()) yields under the compiled extractor, bit for bit and
  // with the same RNG draws, built from the compiled counts instead of
  // traces. Requires CompileFeatures since the last change to the shapes.
  std::vector<std::vector<float>> SynthesizeFeatures(const TrafficSeries& traffic,
                                                     Rng& rng) const;

  // --- Persistence ---
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

 private:
  struct FeatureCount {
    uint32_t feature;
    uint32_t count;
  };
  // A trace shape: spans with parents, canonically serialized for dedup.
  struct Shape {
    std::vector<Span> spans;
    size_t count = 0;
    std::vector<FeatureCount> features;  // set by CompileFeatures
  };
  struct ApiTable {
    std::vector<Shape> shapes;
    // cumulative[k] = count of shapes[0..k], so back() is the API's trace
    // total and the multinomial draw is an upper_bound over it.
    std::vector<uint64_t> cumulative;
    std::map<std::string, size_t> index_by_key;
  };

  static std::string ShapeKey(const Trace& trace);
  // The API's table, or null when it has no trace to sample from.
  const ApiTable* FindTable(const std::string& api) const;
  static Trace MakeTrace(const Shape& shape, uint64_t id, const std::string& api);
  // Multinomial draw over the table's shapes by observed frequency.
  static const Shape& PickShape(const ApiTable& table, Rng& rng);
  // The one definition of mode 1's sampling order, shared by the trace and
  // the feature path. Per window t, per API a: NextPoisson(rate(t, a))
  // requests; per request of a learned API, PickShape then NextU64 for the
  // trace id, then emit(t, a, shape, id). APIs without a table draw only
  // their Poisson counts.
  template <typename Emit>
  void ForEachDraw(const TrafficSeries& traffic, Rng& rng, Emit&& emit) const;

  std::map<std::string, ApiTable> tables_;
  size_t feature_dim_ = 0;   // extractor dimension at the last CompileFeatures
  bool compiled_ = false;    // false while some shape lacks its feature counts
};

}  // namespace deeprest

#endif  // SRC_CORE_TRACE_SYNTHESIZER_H_
