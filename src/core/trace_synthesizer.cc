#include "src/core/trace_synthesizer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>

#include "src/core/feature_extractor.h"

namespace deeprest {

std::string TraceSynthesizer::ShapeKey(const Trace& trace) {
  // "parent|component|operation;" per span, the parent in decimal.
  size_t size = 0;
  for (const Span& s : trace.spans()) {
    size += 13 + s.component.size() + s.operation.size();  // 10 digits at most
  }
  std::string key;
  key.reserve(size);
  for (const Span& s : trace.spans()) {
    char digits[16];
    const auto printed = std::to_chars(digits, digits + sizeof(digits), s.parent);
    key.append(digits, printed.ptr);
    key += '|';
    key += s.component;
    key += '|';
    key += s.operation;
    key += ';';
  }
  return key;
}

void TraceSynthesizer::LearnTrace(const Trace& trace) {
  if (trace.empty()) {
    return;
  }
  ApiTable& table = tables_[trace.api_name()];
  const std::string key = ShapeKey(trace);
  auto it = table.index_by_key.find(key);
  if (it == table.index_by_key.end()) {
    Shape shape;
    shape.spans = trace.spans();
    shape.count = 1;
    table.index_by_key.emplace(key, table.shapes.size());
    table.shapes.push_back(std::move(shape));
    table.cumulative.push_back(table.cumulative.empty() ? 1 : table.cumulative.back() + 1);
    compiled_ = false;
  } else {
    ++table.shapes[it->second].count;
    for (size_t k = it->second; k < table.cumulative.size(); ++k) {
      ++table.cumulative[k];
    }
  }
}

void TraceSynthesizer::LearnRange(const TraceCollector& traces, size_t from, size_t to) {
  for (size_t w = from; w < to; ++w) {
    for (const Trace& t : traces.TracesAt(w)) {
      LearnTrace(t);
    }
  }
}

size_t TraceSynthesizer::ShapeCountFor(const std::string& api) const {
  auto it = tables_.find(api);
  return it == tables_.end() ? 0 : it->second.shapes.size();
}

size_t TraceSynthesizer::TraceCountFor(const std::string& api) const {
  const ApiTable* table = FindTable(api);
  return table == nullptr ? 0 : table->cumulative.back();
}

const TraceSynthesizer::ApiTable* TraceSynthesizer::FindTable(const std::string& api) const {
  auto it = tables_.find(api);
  if (it == tables_.end() || it->second.cumulative.empty() ||
      it->second.cumulative.back() == 0) {
    return nullptr;
  }
  return &it->second;
}

Trace TraceSynthesizer::MakeTrace(const Shape& shape, uint64_t id, const std::string& api) {
  Trace trace(id, api);
  for (const Span& s : shape.spans) {
    trace.AddSpan(s.component, s.operation, s.parent);
  }
  return trace;
}

const TraceSynthesizer::Shape& TraceSynthesizer::PickShape(const ApiTable& table, Rng& rng) {
  // The first shape whose cumulative count exceeds the target: the same
  // shape a linear scan subtracting each count in turn would stop at.
  const uint64_t target = rng.NextBelow(table.cumulative.back());
  const auto it = std::upper_bound(table.cumulative.begin(), table.cumulative.end(), target);
  return table.shapes[static_cast<size_t>(it - table.cumulative.begin())];
}

template <typename Emit>
void TraceSynthesizer::ForEachDraw(const TrafficSeries& traffic, Rng& rng, Emit&& emit) const {
  // One table lookup per API per series, not per synthesized trace.
  std::vector<const ApiTable*> tables(traffic.api_count());
  for (size_t a = 0; a < traffic.api_count(); ++a) {
    tables[a] = FindTable(traffic.apis()[a]);
  }
  for (size_t t = 0; t < traffic.windows(); ++t) {
    for (size_t a = 0; a < traffic.api_count(); ++a) {
      const int count = rng.NextPoisson(traffic.rate(t, a));
      if (tables[a] == nullptr) {
        continue;
      }
      for (int i = 0; i < count; ++i) {
        const Shape& shape = PickShape(*tables[a], rng);
        emit(t, a, shape, rng.NextU64());
      }
    }
  }
}

Trace TraceSynthesizer::Synthesize(const std::string& api, Rng& rng) const {
  const ApiTable* table = FindTable(api);
  if (table == nullptr) {
    return Trace(0, api);
  }
  const Shape& shape = PickShape(*table, rng);
  return MakeTrace(shape, rng.NextU64(), api);
}

void TraceSynthesizer::SynthesizeSeries(const TrafficSeries& traffic, size_t offset, Rng& rng,
                                        TraceCollector& out) const {
  ForEachDraw(traffic, rng, [&](size_t t, size_t a, const Shape& shape, uint64_t id) {
    Trace trace = MakeTrace(shape, id, traffic.apis()[a]);
    if (!trace.empty()) {
      out.Collect(offset + t, std::move(trace));
    }
  });
}

void TraceSynthesizer::CompileFeatures(const FeatureExtractor& extractor) {
  feature_dim_ = extractor.dimension();
  std::vector<float> dense;
  for (auto& [api, table] : tables_) {
    for (Shape& shape : table.shapes) {
      const Trace trace = MakeTrace(shape, 0, api);
      extractor.ExtractInto({&trace}, dense);
      shape.features.clear();
      for (size_t f = 0; f < dense.size(); ++f) {
        if (dense[f] != 0.0f) {
          shape.features.push_back(
              {static_cast<uint32_t>(f), static_cast<uint32_t>(dense[f])});
        }
      }
    }
  }
  compiled_ = true;
}

std::vector<std::vector<float>> TraceSynthesizer::SynthesizeFeatures(
    const TrafficSeries& traffic, Rng& rng) const {
  assert(compiled_ && "SynthesizeFeatures needs CompileFeatures after the last new shape");
  // Integer counters, converted once: the trace path adds 1.0f per prefix
  // occurrence, which sums integer counts exactly while they stay below
  // 2^24, so both paths give the same floats.
  const size_t dim = feature_dim_;
  std::vector<uint64_t> counts(traffic.windows() * dim, 0);
  ForEachDraw(traffic, rng, [&](size_t t, size_t, const Shape& shape, uint64_t) {
    uint64_t* row = counts.data() + t * dim;
    for (const FeatureCount& fc : shape.features) {
      row[fc.feature] += fc.count;
    }
  });
  std::vector<std::vector<float>> series(traffic.windows(), std::vector<float>(dim));
  for (size_t t = 0; t < series.size(); ++t) {
    for (size_t f = 0; f < dim; ++f) {
      series[t][f] = static_cast<float>(counts[t * dim + f]);
    }
  }
  return series;
}

void TraceSynthesizer::Save(std::ostream& out) const {
  auto write_u64 = [&](uint64_t v) { out.write(reinterpret_cast<const char*>(&v), 8); };
  auto write_str = [&](const std::string& s) {
    write_u64(s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  write_u64(tables_.size());
  for (const auto& [api, table] : tables_) {
    write_str(api);
    write_u64(table.shapes.size());
    for (const Shape& shape : table.shapes) {
      write_u64(shape.count);
      write_u64(shape.spans.size());
      for (const Span& s : shape.spans) {
        write_str(s.component);
        write_str(s.operation);
        write_u64(s.parent);
      }
    }
  }
}

bool TraceSynthesizer::Load(std::istream& in) {
  auto read_u64 = [&](uint64_t& v) {
    in.read(reinterpret_cast<char*>(&v), 8);
    return static_cast<bool>(in);
  };
  auto read_str = [&](std::string& s) {
    uint64_t len = 0;
    if (!read_u64(len) || len > (1u << 24)) {
      return false;
    }
    s.resize(len);
    in.read(s.data(), static_cast<std::streamsize>(len));
    return static_cast<bool>(in);
  };

  tables_.clear();
  compiled_ = false;
  uint64_t api_count = 0;
  if (!read_u64(api_count)) {
    return false;
  }
  for (uint64_t i = 0; i < api_count; ++i) {
    std::string api;
    uint64_t shape_count = 0;
    if (!read_str(api) || !read_u64(shape_count)) {
      return false;
    }
    ApiTable& table = tables_[api];
    for (uint64_t s = 0; s < shape_count; ++s) {
      Shape shape;
      uint64_t span_count = 0;
      if (!read_u64(shape.count) || !read_u64(span_count) || span_count > (1u << 20)) {
        return false;
      }
      shape.spans.resize(span_count);
      for (auto& span : shape.spans) {
        uint64_t parent = 0;
        if (!read_str(span.component) || !read_str(span.operation) || !read_u64(parent)) {
          return false;
        }
        span.parent = static_cast<SpanIndex>(parent);
      }
      table.cumulative.push_back((table.cumulative.empty() ? 0 : table.cumulative.back()) +
                                 shape.count);
      // Rebuild the dedup key from a temporary trace.
      table.index_by_key.emplace(ShapeKey(MakeTrace(shape, 0, api)), table.shapes.size());
      table.shapes.push_back(std::move(shape));
    }
  }
  return true;
}

}  // namespace deeprest
