// Execution topology graph (paper Fig. 5).
//
// Each node is a hashed (component, operation) pair observed in traces; a
// trace maps to a directed invocation path through the graph. The graph is
// the only view of the application DeepRest's learning pipeline sees.
#ifndef SRC_TRACE_TOPOLOGY_H_
#define SRC_TRACE_TOPOLOGY_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/span.h"

namespace deeprest {

// Stable identifier of a (component, operation) node in the topology.
using TopologyNodeId = uint32_t;
constexpr TopologyNodeId kUnknownNode = UINT32_MAX;

class TopologyGraph {
 public:
  // Adds (or finds) the node for a hashed (component, operation) pair.
  TopologyNodeId Intern(const std::string& component, const std::string& operation);

  // Finds an existing node; returns false if never observed.
  bool Lookup(const std::string& component, const std::string& operation,
              TopologyNodeId& out) const;

  // Records every span of the trace and the parent->child edges it implies,
  // and returns the trace's node ids, as NodeIdsFor does.
  std::vector<TopologyNodeId> Observe(const Trace& trace);

  size_t node_count() const { return labels_.size(); }
  size_t edge_count() const { return edges_.size(); }

  // True if an edge parent->child has been observed.
  bool HasEdge(TopologyNodeId parent, TopologyNodeId child) const;

  // Human-readable label kept for debugging/visualization only (the hashed
  // key is what identifies the node).
  const std::string& label(TopologyNodeId id) const { return labels_[id]; }

  // Converts a trace into per-span topology node ids (parallel to
  // trace.spans()). Nodes are interned on demand.
  std::vector<TopologyNodeId> NodeIdsFor(const Trace& trace);

  // Const lookup variant: spans whose (component, operation) pair was never
  // interned map to kUnknownNode (used when the topology is frozen after
  // application learning).
  std::vector<TopologyNodeId> FrozenNodeIdsFor(const Trace& trace) const;
  // Same, writing into a caller-owned buffer so per-trace hot loops (feature
  // extraction) reuse its capacity instead of allocating.
  void FrozenNodeIdsInto(const Trace& trace, std::vector<TopologyNodeId>& out) const;

 private:
  static uint64_t Key(const std::string& component, const std::string& operation);

  std::unordered_map<uint64_t, TopologyNodeId> node_by_key_;
  std::vector<std::string> labels_;
  std::set<std::pair<TopologyNodeId, TopologyNodeId>> edges_;
};

// An invocation path: the sequence of topology node ids from the trace root
// down to some span (inclusive). Paths identify features (paper Alg. 1).
using InvocationPath = std::vector<TopologyNodeId>;

// Extracts the invocation path terminating at span `leaf`.
InvocationPath PathToSpan(const Trace& trace, const std::vector<TopologyNodeId>& node_ids,
                          SpanIndex leaf);

}  // namespace deeprest

#endif  // SRC_TRACE_TOPOLOGY_H_
