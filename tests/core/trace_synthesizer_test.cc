#include "src/core/trace_synthesizer.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace deeprest {
namespace {

Trace ShortTrace(uint64_t id) {
  Trace t(id, "/api");
  t.AddSpan("A", "op", kNoParent);
  return t;
}

Trace LongTrace(uint64_t id) {
  Trace t(id, "/api");
  const SpanIndex root = t.AddSpan("A", "op", kNoParent);
  t.AddSpan("B", "op", root);
  return t;
}

TEST(TraceSynthesizerTest, LearnsDistinctShapes) {
  TraceSynthesizer synth;
  synth.LearnTrace(ShortTrace(1));
  synth.LearnTrace(ShortTrace(2));
  synth.LearnTrace(LongTrace(3));
  EXPECT_EQ(synth.ShapeCountFor("/api"), 2u);
  EXPECT_EQ(synth.TraceCountFor("/api"), 3u);
  EXPECT_EQ(synth.ShapeCountFor("/other"), 0u);
}

TEST(TraceSynthesizerTest, UnknownApiYieldsEmptyTrace) {
  TraceSynthesizer synth;
  Rng rng(1);
  EXPECT_TRUE(synth.Synthesize("/missing", rng).empty());
}

TEST(TraceSynthesizerTest, SamplesShapesByFrequency) {
  TraceSynthesizer synth;
  // 80% short, 20% long.
  for (int i = 0; i < 80; ++i) {
    synth.LearnTrace(ShortTrace(i));
  }
  for (int i = 0; i < 20; ++i) {
    synth.LearnTrace(LongTrace(100 + i));
  }
  Rng rng(2);
  int short_count = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    Trace t = synth.Synthesize("/api", rng);
    ASSERT_FALSE(t.empty());
    if (t.size() == 1) {
      ++short_count;
    }
  }
  EXPECT_NEAR(static_cast<double>(short_count) / n, 0.8, 0.03);
}

TEST(TraceSynthesizerTest, SynthesizedTracePreservesStructure) {
  TraceSynthesizer synth;
  Trace original(1, "/api");
  const SpanIndex root = original.AddSpan("A", "op1", kNoParent);
  const SpanIndex mid = original.AddSpan("B", "op2", root);
  original.AddSpan("C", "op3", mid);
  synth.LearnTrace(original);
  Rng rng(3);
  Trace copy = synth.Synthesize("/api", rng);
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy.spans()[0].component, "A");
  EXPECT_EQ(copy.spans()[1].parent, 0u);
  EXPECT_EQ(copy.spans()[2].parent, 1u);
  EXPECT_EQ(copy.spans()[2].operation, "op3");
  EXPECT_EQ(copy.api_name(), "/api");
}

TEST(TraceSynthesizerTest, DeterministicForSeed) {
  TraceSynthesizer synth;
  for (int i = 0; i < 10; ++i) {
    synth.LearnTrace(ShortTrace(i));
    synth.LearnTrace(LongTrace(100 + i));
  }
  Rng rng_a(4);
  Rng rng_b(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(synth.Synthesize("/api", rng_a).size(), synth.Synthesize("/api", rng_b).size());
  }
}

// A chain of `length` spans: one distinct shape per length.
Trace ChainTrace(uint64_t id, size_t length) {
  Trace t(id, "/api");
  SpanIndex parent = kNoParent;
  for (size_t i = 0; i < length; ++i) {
    parent = t.AddSpan("S" + std::to_string(i), "op", parent);
  }
  return t;
}

TEST(TraceSynthesizerTest, PicksTheShapeALinearScanOverCountsPicks) {
  const std::vector<uint64_t> counts = {3, 1, 2, 5, 1};
  TraceSynthesizer synth;
  for (size_t k = 0; k < counts.size(); ++k) {
    for (uint64_t c = 0; c < counts[k]; ++c) {
      synth.LearnTrace(ChainTrace(c, k + 1));
    }
  }
  Rng rng(8);
  Rng scan_rng(8);
  for (int i = 0; i < 2000; ++i) {
    uint64_t target = scan_rng.NextBelow(12);
    size_t expected = 0;
    while (target >= counts[expected]) {
      target -= counts[expected++];
    }
    scan_rng.NextU64();  // the trace id
    ASSERT_EQ(synth.Synthesize("/api", rng).size(), expected + 1) << "draw " << i;
  }
}

TEST(TraceSynthesizerTest, SynthesizeSeriesMatchesRates) {
  TraceSynthesizer synth;
  for (int i = 0; i < 10; ++i) {
    synth.LearnTrace(ShortTrace(i));
  }
  TrafficSeries traffic({"/api"}, 50);
  for (size_t w = 0; w < 50; ++w) {
    traffic.set_rate(w, 0, 20.0);
  }
  Rng rng(5);
  TraceCollector out;
  synth.SynthesizeSeries(traffic, 0, rng, out);
  EXPECT_EQ(out.window_count(), 50u);
  // Poisson(20) x 50 windows: total near 1000.
  EXPECT_NEAR(static_cast<double>(out.total_traces()), 1000.0, 120.0);
}

TEST(TraceSynthesizerTest, SynthesizeSeriesRespectsOffset) {
  TraceSynthesizer synth;
  synth.LearnTrace(ShortTrace(1));
  TrafficSeries traffic({"/api"}, 2);
  traffic.set_rate(0, 0, 5.0);
  traffic.set_rate(1, 0, 5.0);
  Rng rng(6);
  TraceCollector out;
  synth.SynthesizeSeries(traffic, 100, rng, out);
  EXPECT_TRUE(out.TracesAt(0).empty());
  EXPECT_FALSE(out.TracesAt(100).empty());
}

TEST(TraceSynthesizerTest, SaveLoadRoundTrip) {
  TraceSynthesizer synth;
  for (int i = 0; i < 30; ++i) {
    synth.LearnTrace(ShortTrace(i));
  }
  for (int i = 0; i < 10; ++i) {
    synth.LearnTrace(LongTrace(100 + i));
  }
  std::stringstream buffer;
  synth.Save(buffer);

  TraceSynthesizer restored;
  ASSERT_TRUE(restored.Load(buffer));
  EXPECT_EQ(restored.ShapeCountFor("/api"), 2u);
  EXPECT_EQ(restored.TraceCountFor("/api"), 40u);
  // Restored tables sample the same distribution as the original.
  Rng rng_a(7);
  Rng rng_b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(restored.Synthesize("/api", rng_a).size(),
              synth.Synthesize("/api", rng_b).size());
  }
}

TEST(TraceSynthesizerTest, LoadRejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a synthesizer";
  TraceSynthesizer synth;
  EXPECT_FALSE(synth.Load(buffer));
}

}  // namespace
}  // namespace deeprest
