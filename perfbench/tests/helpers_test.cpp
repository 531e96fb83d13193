// Tests for the benchmark's own measurement helpers.
#include <gtest/gtest.h>

#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(tailReportable(1000, 0.99));
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(tailReportable(999, 0.99));
  EXPECT_TRUE(tailReportable(20, 0.50));
  EXPECT_FALSE(tailReportable(19, 0.50));
  EXPECT_FALSE(tailReportable(0, 0.50));
}

Histogram histogramOf(const std::vector<double>& xs) {
  Histogram h;
  for (const double x : xs) h.add(x);
  return h;
}

TEST(PercentileRule, InterpolatesInsideTheQuantumAndCarriesItsCount) {
  // Samples in steps of 10: classes [5,15) x2, [15,25) x3, [25,35) x1.
  const Histogram h = histogramOf({20, 10, 30, 20, 10, 20});
  // Rank 3 of 6 is the first of the 3 samples in the class of 20.
  const Percentile p50 = percentile(h, 0.50, 10.0);
  EXPECT_NEAR(p50.value, 15.0 + 10.0 / 3.0, 1e-12);
  EXPECT_EQ(p50.samples, 6u);
  EXPECT_FALSE(p50.reportable);  // 6 samples leave 3 beyond the median
  EXPECT_NEAR(percentile(h, 0.25, 10.0).value, 5.0 + 1.5 / 2.0 * 10.0,
              1e-12);
  EXPECT_NEAR(percentile(h, 1.00, 10.0).value, 35.0, 1e-12);
  // Moving one sample between classes moves the estimate, although the
  // raw median (20) stays put.
  const Histogram shifted = histogramOf({20, 10, 30, 20, 20, 20});
  EXPECT_NEAR(percentile(shifted, 0.50, 10.0).value, 20.0, 1e-12);

  const Percentile empty = percentile(Histogram{}, 0.99, 10.0);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Histogram, PoolsCountsAcrossMerges) {
  Histogram a = histogramOf({1, 1, 2});
  a.merge(histogramOf({2, 3}));
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.counts().at(1), 2u);
  EXPECT_EQ(a.counts().at(2), 2u);
  EXPECT_EQ(a.counts().at(3), 1u);
}

TEST(OpSplit, SeparatesOwnerLocalFromRemoteOps) {
  OpSplit split(2);
  split.record(0, 0, 100.0);   // owner-local
  split.record(0, 1, 8000.0);  // remote, serviced by locale 1
  split.record(1, 0, 7000.0);  // remote, serviced by locale 0
  split.record(1, 1, 50.0);    // owner-local
  split.record(1, 0, 9000.0);
  EXPECT_EQ(split.local().counts(), histogramOf({100.0, 50.0}).counts());
  EXPECT_EQ(split.remote().counts(),
            histogramOf({8000.0, 7000.0, 9000.0}).counts());
  EXPECT_EQ(split.remoteTo(0), 2u);
  EXPECT_EQ(split.remoteTo(1), 1u);
  EXPECT_EQ(split.remoteTo(7), 0u);

  OpSplit other(2);
  other.record(0, 1, 1.0);
  split.merge(other);
  EXPECT_EQ(split.remote().size(), 4u);
  EXPECT_EQ(split.remoteTo(1), 2u);
}

Span span(std::int64_t parent, Layer layer, std::uint64_t b, std::uint64_t e) {
  Span s;
  s.parent = parent;
  s.layer = layer;
  s.sim_begin = b;
  s.sim_end = e;
  s.wall_begin = static_cast<std::int64_t>(b) * 2;
  s.wall_end = static_cast<std::int64_t>(e) * 2;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  const std::vector<Span> spans = {
      span(-1, Layer::bench, 0, 100),
      span(0, Layer::ds, 10, 30),
      span(0, Layer::ds, 20, 50),    // overlaps its sibling
      span(0, Layer::comm, 90, 120), // runs past the parent's end
      span(1, Layer::epoch, 12, 18), // grandchild: counts against ds only
  };
  const SelfTimes self = selfTimes(spans);
  const auto at = [](Layer l) { return static_cast<std::size_t>(l); };
  // bench: 100 - |[10,50] u [90,100]| = 100 - 50.
  EXPECT_DOUBLE_EQ(self.sim_ns[at(Layer::bench)], 50.0);
  // ds: (20 - 6) + 30.
  EXPECT_DOUBLE_EQ(self.sim_ns[at(Layer::ds)], 44.0);
  EXPECT_DOUBLE_EQ(self.sim_ns[at(Layer::comm)], 30.0);
  EXPECT_DOUBLE_EQ(self.sim_ns[at(Layer::epoch)], 6.0);
  EXPECT_DOUBLE_EQ(self.sim_ns[at(Layer::runtime)], 0.0);
  EXPECT_DOUBLE_EQ(self.wall_ns[at(Layer::bench)], 100.0);
}

TEST(SelfTime, LanesFlattenWithCrossLaneParents) {
  Tracer tracer(2);
  SpanRef root;
  {
    const Scope r(&tracer.lane(0), "root", Layer::bench);
    root = r.ref();
    const Scope child(&tracer.lane(1), "child", Layer::ds, root, 7);
  }
  const std::vector<Span> spans = tracer.flatten();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].req, 7u);
  EXPECT_EQ(spans[1].lane, 1u);
  const Scope off(nullptr, "untraced", Layer::bench);  // records nothing
  EXPECT_EQ(tracer.spanCount(), 2u);
}

TEST(MetricSet, RatioTravelsWithItsBase) {
  MetricSet m;
  m.addRatio("comm.ops_per_am", "ops/am", "comm", 120.0, "comm.am_batched",
             "count", 4.0);
  const Metric* base = m.find("comm.am_batched");
  const Metric* ratio = m.find("comm.ops_per_am");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(ratio, nullptr);
  EXPECT_DOUBLE_EQ(base->value, 4.0);
  EXPECT_DOUBLE_EQ(ratio->value, 30.0);
  EXPECT_EQ(ratio->samples, 4u);

  // A zero base reads 0, never NaN.
  m.addRatio("comm.issue_ns_per_op", "ns", "comm", 5.0, "comm.issued",
             "count", 0.0);
  EXPECT_DOUBLE_EQ(m.find("comm.issue_ns_per_op")->value, 0.0);
  EXPECT_DOUBLE_EQ(m.find("comm.issued")->value, 0.0);
  EXPECT_EQ(m.all().size(), 4u);
}

}  // namespace
}  // namespace perfbench
