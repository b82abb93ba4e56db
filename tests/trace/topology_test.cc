#include "src/trace/topology.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace deeprest {
namespace {

Trace MakeComposeTrace() {
  Trace t(7, "/composePost");
  const SpanIndex root = t.AddSpan("FrontendNGINX", "composePost", kNoParent);
  const SpanIndex cps = t.AddSpan("ComposePostService", "composePost", root);
  t.AddSpan("PostStorageMongoDB", "insert", cps);
  t.AddSpan("UserTimelineService", "writeTimeline", cps);
  return t;
}

TEST(TopologyGraphTest, InternIsIdempotent) {
  TopologyGraph g;
  const TopologyNodeId a = g.Intern("A", "op");
  const TopologyNodeId b = g.Intern("A", "op");
  EXPECT_EQ(a, b);
  EXPECT_EQ(g.node_count(), 1u);
}

TEST(TopologyGraphTest, DistinctPairsGetDistinctIds) {
  TopologyGraph g;
  const TopologyNodeId a = g.Intern("A", "op1");
  const TopologyNodeId b = g.Intern("A", "op2");
  const TopologyNodeId c = g.Intern("B", "op1");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(g.node_count(), 3u);
}

TEST(TopologyGraphTest, SeparatorPreventsAmbiguity) {
  TopologyGraph g;
  const TopologyNodeId a = g.Intern("ab", "c");
  const TopologyNodeId b = g.Intern("a", "bc");
  EXPECT_NE(a, b);
}

TEST(TopologyGraphTest, LookupFindsOnlyInterned) {
  TopologyGraph g;
  g.Intern("A", "op");
  TopologyNodeId id = 0;
  EXPECT_TRUE(g.Lookup("A", "op", id));
  EXPECT_FALSE(g.Lookup("A", "other", id));
}

// Both hash the pair without building "component:operation", so names
// past the string's in-object buffer and empty names must key alike.
TEST(TopologyGraphTest, InternAndLookupAgreeOnLongAndEmptyNames) {
  TopologyGraph g;
  const std::string component(40, 'c');
  const std::string operation = "operation-name-longer-than-sso-" + std::string(20, 'o');
  const TopologyNodeId long_id = g.Intern(component, operation);
  const TopologyNodeId empty_id = g.Intern("", "");
  const TopologyNodeId empty_op = g.Intern(component, "");
  EXPECT_NE(long_id, empty_id);
  EXPECT_NE(long_id, empty_op);
  EXPECT_NE(empty_id, empty_op);
  TopologyNodeId id = kUnknownNode;
  ASSERT_TRUE(g.Lookup(component, operation, id));
  EXPECT_EQ(id, long_id);
  ASSERT_TRUE(g.Lookup("", "", id));
  EXPECT_EQ(id, empty_id);
  ASSERT_TRUE(g.Lookup(component, "", id));
  EXPECT_EQ(id, empty_op);
  EXPECT_FALSE(g.Lookup("", operation, id));
  EXPECT_EQ(g.Intern(component, operation), long_id);
  EXPECT_EQ(g.label(long_id), component + ":" + operation);
  EXPECT_EQ(g.label(empty_id), ":");
}

TEST(TopologyGraphTest, ObserveReturnsNodeIdsFor) {
  TopologyGraph g;
  const Trace t = MakeComposeTrace();
  const std::vector<TopologyNodeId> observed = g.Observe(t);
  EXPECT_EQ(observed, g.NodeIdsFor(t));
  EXPECT_EQ(observed, g.FrozenNodeIdsFor(t));
}

TEST(TopologyGraphTest, ObserveRecordsEdges) {
  TopologyGraph g;
  Trace t = MakeComposeTrace();
  g.Observe(t);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  TopologyNodeId frontend = 0;
  TopologyNodeId compose = 0;
  TopologyNodeId mongo = 0;
  ASSERT_TRUE(g.Lookup("FrontendNGINX", "composePost", frontend));
  ASSERT_TRUE(g.Lookup("ComposePostService", "composePost", compose));
  ASSERT_TRUE(g.Lookup("PostStorageMongoDB", "insert", mongo));
  EXPECT_TRUE(g.HasEdge(frontend, compose));
  EXPECT_TRUE(g.HasEdge(compose, mongo));
  EXPECT_FALSE(g.HasEdge(frontend, mongo));
}

TEST(TopologyGraphTest, ObserveIsIdempotentOnEdges) {
  TopologyGraph g;
  Trace t = MakeComposeTrace();
  g.Observe(t);
  g.Observe(t);
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(TopologyGraphTest, LabelIsHumanReadable) {
  TopologyGraph g;
  const TopologyNodeId id = g.Intern("PostStorageService", "findPosts");
  EXPECT_EQ(g.label(id), "PostStorageService:findPosts");
}

TEST(PathToSpanTest, RootPathIsSingleton) {
  TopologyGraph g;
  Trace t = MakeComposeTrace();
  const auto ids = g.NodeIdsFor(t);
  const InvocationPath path = PathToSpan(t, ids, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], ids[0]);
}

TEST(PathToSpanTest, DeepPathRunsRootToLeaf) {
  TopologyGraph g;
  Trace t = MakeComposeTrace();
  const auto ids = g.NodeIdsFor(t);
  const InvocationPath path = PathToSpan(t, ids, 2);  // PostStorageMongoDB:insert
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], ids[0]);
  EXPECT_EQ(path[1], ids[1]);
  EXPECT_EQ(path[2], ids[2]);
}

TEST(PathToSpanTest, SiblingsShareParentPrefix) {
  TopologyGraph g;
  Trace t = MakeComposeTrace();
  const auto ids = g.NodeIdsFor(t);
  const InvocationPath p2 = PathToSpan(t, ids, 2);
  const InvocationPath p3 = PathToSpan(t, ids, 3);
  ASSERT_EQ(p2.size(), 3u);
  ASSERT_EQ(p3.size(), 3u);
  EXPECT_EQ(p2[0], p3[0]);
  EXPECT_EQ(p2[1], p3[1]);
  EXPECT_NE(p2[2], p3[2]);
}

}  // namespace
}  // namespace deeprest
