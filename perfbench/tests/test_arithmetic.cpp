// Tests for the benchmark's own arithmetic: the tail-percentile choice,
// nearest-rank percentiles, covered-interval lengths, and the self-time
// and wall-clock split of spans, including children that overlap across
// two pool threads. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "trace.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

pb::Span span(std::int32_t name, std::int32_t thread, std::int64_t start, std::int64_t end,
              std::int64_t id, std::int64_t parent) {
  pb::Span s;
  s.name = name;
  s.thread = thread;
  s.start = start;
  s.end = end;
  s.id = id;
  s.parent = parent;
  return s;
}

const pb::LayerRow* row(const pb::Breakdown& b, const std::string& name) {
  for (const pb::LayerRow& r : b.rows)
    if (r.name == name) return &r;
  return nullptr;
}

void test_tail_level() {
  // At least ten samples strictly beyond the nearest rank.
  expect(pb::tail_level(0) == 0.0, "no samples: no tail");
  expect(pb::tail_level(19) == 0.0, "19 samples: the median leaves 9");
  expect(pb::tail_level(20) == 50.0, "20 samples: p50 leaves 10");
  expect(pb::tail_level(39) == 50.0, "39 samples: p75 leaves 9");
  expect(pb::tail_level(40) == 75.0, "40 samples: p75 leaves 10");
  expect(pb::tail_level(46) == 75.0, "46 samples: p90 leaves 4");
  expect(pb::tail_level(100) == 90.0, "100 samples: p90 leaves 10, p95 leaves 5");
  expect(pb::tail_level(199) == 90.0, "199 samples: p95 leaves 9");
  expect(pb::tail_level(200) == 95.0, "200 samples: p95 leaves 10");
  expect(pb::tail_level(1000) == 99.0, "1000 samples: p99 leaves 10");
  expect(pb::tail_level(9999) == 99.0, "9999 samples: p99.9 leaves 9");
  expect(pb::tail_level(10000) == 99.9, "10000 samples: p99.9 leaves 10");
}

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  expect(pb::percentile(v, 50.0) == 50.0, "p50 of 1..100 is 50");
  expect(pb::percentile(v, 90.0) == 90.0, "p90 of 1..100 is 90");
  expect(pb::percentile(v, 100.0) == 100.0, "p100 is the maximum");
  const std::vector<double> one(1, 7.0), none;
  expect(pb::percentile(one, 99.0) == 7.0, "single sample");
  expect(pb::percentile(none, 50.0) == 0.0, "empty sample");
  // Exactly ten samples lie beyond the p90 value of 100 samples.
  int beyond = 0;
  for (const double x : v) beyond += x > pb::percentile(v, pb::tail_level(v.size())) ? 1 : 0;
  expect(beyond == 10, "ten samples beyond the chosen tail");
}

void test_covered() {
  expect(pb::covered_ns(0, 100, {}) == 0, "nothing covered");
  expect(pb::covered_ns(0, 100, {{10, 20}, {30, 40}}) == 20, "disjoint children");
  expect(pb::covered_ns(0, 100, {{10, 50}, {30, 60}}) == 50, "overlapping children count once");
  expect(pb::covered_ns(0, 100, {{30, 60}, {10, 50}, {20, 25}}) == 50, "unsorted, nested");
  expect(pb::covered_ns(0, 100, {{-10, 20}, {90, 150}}) == 30, "children clipped to the span");
  expect(pb::covered_ns(0, 100, {{40, 40}}) == 0, "empty child");
}

void test_serial_split() {
  // step [0, 100) on the main thread with children dense [10, 40) and
  // relu [50, 60); dense has a child data [15, 25). Phase [0, 120).
  const std::vector<std::string> names = {"step", "dense", "relu", "data"};
  const std::vector<pb::Span> spans = {
      span(0, 0, 0, 100, 1, -1), span(1, 0, 10, 40, 2, 1), span(3, 0, 15, 25, 3, 2),
      span(2, 0, 50, 60, 4, 1)};
  const pb::Breakdown b = pb::breakdown(spans, names, 0, 120);
  expect(near(row(b, "step")->self_ms * 1e6, 60), "step self = 100 - 30 - 10");
  expect(near(row(b, "dense")->self_ms * 1e6, 20), "dense self = 30 - 10");
  expect(near(row(b, "step")->wall_ms * 1e6, 60), "serial: wall equals self");
  expect(near(row(b, "data")->wall_ms * 1e6, 10), "leaf wall");
  expect(near(b.outside_ms * 1e6, 20), "20 ns outside any span");
  expect(b.sum_gap_ms < 1e-12 && b.min_wall_ms >= 0.0, "adds up, nothing negative");
  expect(b.worker_threads == 0, "no pool threads");
}

void test_two_worker_split() {
  // step [0, 100) on the main thread; two pool threads work under it:
  // thread 1 runs fwd [10, 60), thread 2 runs fwd [30, 80) and, inside
  // it, data [40, 50). The children overlap in [30, 60).
  const std::vector<std::string> names = {"step", "fwd", "data"};
  const std::int64_t t1 = std::int64_t{1} << 40, t2 = std::int64_t{2} << 40;
  const std::vector<pb::Span> spans = {span(0, 0, 0, 100, 0, -1), span(1, 1, 10, 60, t1, 0),
                                       span(1, 2, 30, 80, t2, 0), span(2, 2, 40, 50, t2 + 1, t2)};
  const pb::Breakdown b = pb::breakdown(spans, names, 0, 100);
  // Self time: the union of [10, 60) and [30, 80) covers 70 of the step.
  expect(near(row(b, "step")->self_ms * 1e6, 30), "step self = 100 - union(70)");
  expect(near(row(b, "fwd")->total_ms * 1e6, 100), "fwd summed over threads = 50 + 50");
  expect(near(row(b, "fwd")->self_ms * 1e6, 90), "fwd self = 100 - 10");
  // Wall split: [0,10) step; [10,30) half fwd (thread 1), half step (idle
  // thread 2); [30,40) fwd both; [40,50) fwd + data; [50,60) fwd both;
  // [60,80) half fwd (thread 2), half step; [80,100) step.
  expect(near(row(b, "step")->wall_ms * 1e6, 10 + 10 + 10 + 20), "step wall");
  expect(near(row(b, "fwd")->wall_ms * 1e6, 10 + 10 + 5 + 10 + 10), "fwd wall");
  expect(near(row(b, "data")->wall_ms * 1e6, 5), "data wall");
  expect(b.sum_gap_ms < 1e-12 && b.min_wall_ms >= 0.0, "adds up, nothing negative");
  expect(b.worker_threads == 2, "two pool threads");
}

}  // namespace

int main() {
  test_tail_level();
  test_percentile();
  test_covered();
  test_serial_split();
  test_two_worker_split();
  if (failures == 0) std::printf("arithmetic tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
