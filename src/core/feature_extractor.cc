#include "src/core/feature_extractor.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>

namespace deeprest {

namespace {

// Per-thread scratch for the prefix walk. Child lists are kept in CSR form
// (offsets into one flat span array) and every buffer keeps its capacity
// across traces, so the walk performs no allocator calls in steady state.
struct PrefixWalkScratch {
  std::vector<size_t> child_offset;   // n + 1 offsets into child_list
  std::vector<size_t> child_cursor;   // fill/iteration cursor per span
  std::vector<SpanIndex> child_list;  // children, grouped by parent
  InvocationPath path;
  std::vector<std::pair<SpanIndex, size_t>> stack;  // (span, child cursor)
  std::vector<TopologyNodeId> ids;    // node-id buffer for the extraction path
};

PrefixWalkScratch& WalkScratch() {
  thread_local PrefixWalkScratch scratch;
  return scratch;
}

// Walks the trace and invokes fn(path) for the prefix ending at each span,
// reusing one growing path buffer (equivalent to the recursive traversal of
// the paper's Algorithms 1 and 2 but iteration-friendly).
template <typename Fn>
void ForEachPrefix(const Trace& trace, const std::vector<TopologyNodeId>& ids, Fn&& fn) {
  const size_t n = trace.size();
  if (n == 0) {
    return;
  }
  // Counting-sort the parent->child edges into CSR: spans are scanned in
  // ascending order twice, so each parent's child list stays ascending —
  // the same visit order as per-parent child vectors.
  PrefixWalkScratch& s = WalkScratch();
  s.child_offset.assign(n + 1, 0);
  for (SpanIndex i = 0; i < n; ++i) {
    const SpanIndex parent = trace.spans()[i].parent;
    if (parent != kNoParent) {
      ++s.child_offset[parent + 1];
    }
  }
  for (size_t i = 1; i <= n; ++i) {
    s.child_offset[i] += s.child_offset[i - 1];
  }
  s.child_list.resize(s.child_offset[n]);
  s.child_cursor.assign(s.child_offset.begin(), s.child_offset.end() - 1);
  for (SpanIndex i = 0; i < n; ++i) {
    const SpanIndex parent = trace.spans()[i].parent;
    if (parent != kNoParent) {
      s.child_list[s.child_cursor[parent]++] = i;
    }
  }
  // Reset cursors for the traversal itself.
  s.child_cursor.assign(s.child_offset.begin(), s.child_offset.end() - 1);

  // Depth-first traversal from the root, maintaining the current path.
  s.path.clear();
  s.stack.clear();
  s.path.push_back(ids[0]);
  fn(s.path);
  s.stack.emplace_back(0, s.child_offset[0]);
  while (!s.stack.empty()) {
    auto& [span, cursor] = s.stack.back();
    if (cursor < s.child_offset[span + 1]) {
      const SpanIndex child = s.child_list[cursor];
      ++cursor;
      s.path.push_back(ids[child]);
      fn(s.path);
      s.stack.emplace_back(child, s.child_offset[child]);
    } else {
      s.path.pop_back();
      s.stack.pop_back();
    }
  }
}

}  // namespace

size_t FeatureExtractor::InternPath(const InvocationPath& path) {
  auto it = index_by_path_.find(path);
  if (it != index_by_path_.end()) {
    return it->second;
  }
  const size_t index = paths_.size();
  index_by_path_.emplace(path, index);
  paths_.push_back(path);
  api_counts_.emplace_back();
  return index;
}

bool FeatureExtractor::LookupPath(const InvocationPath& path, size_t& out) const {
  auto it = index_by_path_.find(path);
  if (it == index_by_path_.end()) {
    return false;
  }
  out = it->second;
  return true;
}

void FeatureExtractor::LearnTrace(const Trace& trace) {
  if (trace.empty()) {
    return;
  }
  const std::vector<TopologyNodeId> ids = topology_.Observe(trace);
  ForEachPrefix(trace, ids, [&](const InvocationPath& path) {
    const size_t feature = InternPath(path);
    ++api_counts_[feature][trace.api_name()];
  });
}

void FeatureExtractor::LearnRange(const TraceCollector& traces, size_t from, size_t to) {
  for (size_t w = from; w < to; ++w) {
    for (const Trace& t : traces.TracesAt(w)) {
      LearnTrace(t);
    }
  }
}

std::vector<float> FeatureExtractor::Extract(const std::vector<const Trace*>& traces) const {
  std::vector<float> features;
  ExtractInto(traces, features);
  return features;
}

void FeatureExtractor::ExtractInto(const std::vector<const Trace*>& traces,
                                   std::vector<float>& out) const {
  out.assign(dimension(), 0.0f);
  // The topology is frozen: spans naming unknown (component, operation) pairs
  // map to kUnknownNode, so paths through them fail LookupPath and are
  // skipped — matching the paper's fixed post-learning feature space.
  for (const Trace* trace : traces) {
    if (trace == nullptr || trace->empty()) {
      continue;
    }
    std::vector<TopologyNodeId>& ids = WalkScratch().ids;
    topology_.FrozenNodeIdsInto(*trace, ids);
    ForEachPrefix(*trace, ids, [&](const InvocationPath& path) {
      size_t feature = 0;
      if (LookupPath(path, feature)) {
        out[feature] += 1.0f;
      }
    });
  }
}

std::vector<float> FeatureExtractor::ExtractWindow(const TraceCollector& traces,
                                                   size_t window) const {
  thread_local std::vector<const Trace*> pointers;
  pointers.clear();
  const std::vector<Trace>& in_window = traces.TracesAt(window);
  pointers.reserve(in_window.size());
  for (const Trace& t : in_window) {
    pointers.push_back(&t);
  }
  return Extract(pointers);
}

std::vector<std::vector<float>> FeatureExtractor::ExtractSeries(const TraceCollector& traces,
                                                                size_t from, size_t to) const {
  std::vector<std::vector<float>> series;
  series.reserve(to > from ? to - from : 0);
  for (size_t w = from; w < to; ++w) {
    series.push_back(ExtractWindow(traces, w));
  }
  return series;
}

std::string FeatureExtractor::DescribePath(size_t feature) const {
  std::ostringstream os;
  const InvocationPath& path = paths_[feature];
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      os << " > ";
    }
    os << topology_.label(path[i]);
  }
  return os.str();
}

std::string FeatureExtractor::DominantApiOf(size_t feature) const {
  const auto& counts = api_counts_[feature];
  std::string best;
  size_t best_count = 0;
  for (const auto& [api, count] : counts) {
    if (count > best_count) {
      best = api;
      best_count = count;
    }
  }
  return best;
}

std::vector<std::string> FeatureExtractor::KnownApis() const {
  std::map<std::string, bool> seen;
  for (const auto& counts : api_counts_) {
    for (const auto& [api, unused] : counts) {
      seen[api] = true;
    }
  }
  std::vector<std::string> apis;
  for (const auto& [api, unused] : seen) {
    apis.push_back(api);
  }
  return apis;
}

void FeatureExtractor::Save(std::ostream& out) const {
  auto write_u64 = [&](uint64_t v) { out.write(reinterpret_cast<const char*>(&v), 8); };
  auto write_str = [&](const std::string& s) {
    write_u64(s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  // Topology node labels, in id order, so ids can be re-interned identically.
  write_u64(topology_.node_count());
  for (TopologyNodeId id = 0; id < topology_.node_count(); ++id) {
    write_str(topology_.label(id));
  }
  write_u64(paths_.size());
  for (size_t f = 0; f < paths_.size(); ++f) {
    write_u64(paths_[f].size());
    for (TopologyNodeId id : paths_[f]) {
      write_u64(id);
    }
    write_u64(api_counts_[f].size());
    for (const auto& [api, count] : api_counts_[f]) {
      write_str(api);
      write_u64(count);
    }
  }
}

bool FeatureExtractor::Load(std::istream& in) {
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

  *this = FeatureExtractor();
  uint64_t node_count = 0;
  if (!read_u64(node_count)) {
    return false;
  }
  for (uint64_t i = 0; i < node_count; ++i) {
    std::string label;
    if (!read_str(label)) {
      return false;
    }
    // Labels are "component:operation"; split on the first ':'.
    const size_t colon = label.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    topology_.Intern(label.substr(0, colon), label.substr(colon + 1));
  }
  uint64_t path_count = 0;
  if (!read_u64(path_count)) {
    return false;
  }
  for (uint64_t f = 0; f < path_count; ++f) {
    uint64_t len = 0;
    if (!read_u64(len) || len > (1u << 20)) {
      return false;
    }
    InvocationPath path(len);
    for (auto& id : path) {
      uint64_t v = 0;
      if (!read_u64(v)) {
        return false;
      }
      id = static_cast<TopologyNodeId>(v);
    }
    InternPath(path);
    uint64_t api_count = 0;
    if (!read_u64(api_count)) {
      return false;
    }
    for (uint64_t a = 0; a < api_count; ++a) {
      std::string api;
      uint64_t count = 0;
      if (!read_str(api) || !read_u64(count)) {
        return false;
      }
      api_counts_[f][api] = count;
    }
  }
  return true;
}

}  // namespace deeprest
