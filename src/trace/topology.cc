#include "src/trace/topology.h"

#include <cassert>

namespace deeprest {

uint64_t TopologyGraph::Key(const std::string& component, const std::string& operation) {
  // HashName(component + ":" + operation), fed byte by byte without building
  // the string; the ':' separator prevents ambiguity between ("ab", "c") and
  // ("a", "bc").
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto feed = [&hash](unsigned char c) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  };
  for (unsigned char c : component) {
    feed(c);
  }
  feed(':');
  for (unsigned char c : operation) {
    feed(c);
  }
  return hash;
}

TopologyNodeId TopologyGraph::Intern(const std::string& component,
                                     const std::string& operation) {
  const uint64_t key = Key(component, operation);
  auto it = node_by_key_.find(key);
  if (it != node_by_key_.end()) {
    return it->second;
  }
  const TopologyNodeId id = static_cast<TopologyNodeId>(labels_.size());
  node_by_key_.emplace(key, id);
  labels_.push_back(component + ":" + operation);
  return id;
}

bool TopologyGraph::Lookup(const std::string& component, const std::string& operation,
                           TopologyNodeId& out) const {
  auto it = node_by_key_.find(Key(component, operation));
  if (it == node_by_key_.end()) {
    return false;
  }
  out = it->second;
  return true;
}

std::vector<TopologyNodeId> TopologyGraph::Observe(const Trace& trace) {
  std::vector<TopologyNodeId> ids = NodeIdsFor(trace);
  for (SpanIndex i = 0; i < trace.spans().size(); ++i) {
    const SpanIndex parent = trace.spans()[i].parent;
    if (parent != kNoParent) {
      edges_.emplace(ids[parent], ids[i]);
    }
  }
  return ids;
}

bool TopologyGraph::HasEdge(TopologyNodeId parent, TopologyNodeId child) const {
  return edges_.count({parent, child}) > 0;
}

std::vector<TopologyNodeId> TopologyGraph::FrozenNodeIdsFor(const Trace& trace) const {
  std::vector<TopologyNodeId> ids;
  FrozenNodeIdsInto(trace, ids);
  return ids;
}

void TopologyGraph::FrozenNodeIdsInto(const Trace& trace,
                                      std::vector<TopologyNodeId>& out) const {
  out.clear();
  out.reserve(trace.size());
  for (const Span& span : trace.spans()) {
    TopologyNodeId id = kUnknownNode;
    Lookup(span.component, span.operation, id);
    out.push_back(id);
  }
}

std::vector<TopologyNodeId> TopologyGraph::NodeIdsFor(const Trace& trace) {
  std::vector<TopologyNodeId> ids;
  ids.reserve(trace.size());
  for (const Span& span : trace.spans()) {
    ids.push_back(Intern(span.component, span.operation));
  }
  return ids;
}

InvocationPath PathToSpan(const Trace& trace, const std::vector<TopologyNodeId>& node_ids,
                          SpanIndex leaf) {
  assert(node_ids.size() == trace.size());
  InvocationPath reversed;
  SpanIndex cursor = leaf;
  while (cursor != kNoParent) {
    reversed.push_back(node_ids[cursor]);
    cursor = trace.spans()[cursor].parent;
  }
  return InvocationPath(reversed.rbegin(), reversed.rend());
}

}  // namespace deeprest
