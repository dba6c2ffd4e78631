// RequestQueue: bounded FIFO admission with backpressure.
#include <gtest/gtest.h>

#include "serve/request_queue.h"
#include "serve/slo_tracker.h"
#include "util/common.h"

namespace vf::serve {
namespace {

InferRequest req(std::int64_t id, double t) {
  InferRequest r;
  r.id = id;
  r.arrival_s = t;
  r.example_index = id;
  return r;
}

TEST(RequestQueue, FifoOrderAndCounts) {
  RequestQueue q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 0.5)));
  EXPECT_TRUE(q.push(req(2, 0.5)));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.front().id, 0);
  EXPECT_EQ(q.at(2).id, 2);

  const auto popped = q.pop(2);
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0].id, 0);
  EXPECT_EQ(popped[1].id, 1);
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.admitted(), 3);
  EXPECT_EQ(q.rejected(), 0);
}

TEST(RequestQueue, BackpressureRejectsAtCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 1.0)));
  // Full: the next admissions bounce without disturbing queued requests.
  EXPECT_FALSE(q.push(req(2, 2.0)));
  EXPECT_FALSE(q.push(req(3, 3.0)));
  EXPECT_EQ(q.size(), 2);
  EXPECT_EQ(q.admitted(), 2);
  EXPECT_EQ(q.rejected(), 2);
  // Draining reopens admission.
  q.pop(1);
  EXPECT_TRUE(q.push(req(4, 4.0)));
  EXPECT_EQ(q.rejected(), 2);
  EXPECT_EQ(q.front().id, 1);
}

// Regression: a dropped request must reach the SloTracker *with its id* —
// drop accounting is wired at the queue itself (the backpressure point),
// so it survives batching-policy rewrites instead of depending on each
// replay loop remembering to record rejections.
TEST(RequestQueue, RejectObserverReceivesEveryDroppedRequest) {
  RequestQueue q(2);
  SloTracker tracker(0.5);
  q.set_reject_observer([&](const InferRequest& r, double now_s) {
    tracker.record_rejection(r, now_s);
  });

  EXPECT_TRUE(q.push(req(0, 0.0)));
  EXPECT_TRUE(q.push(req(1, 1.0)));
  EXPECT_FALSE(q.push(req(42, 2.0)));
  EXPECT_FALSE(q.push(req(43, 3.0)));

  EXPECT_EQ(tracker.rejected(), 2);
  ASSERT_EQ(tracker.records().size(), 2u);
  EXPECT_EQ(tracker.records()[0].id, 42) << "the dropped request's own id";
  EXPECT_TRUE(tracker.records()[0].rejected);
  EXPECT_EQ(tracker.records()[0].arrival_s, 2.0);
  EXPECT_EQ(tracker.records()[1].id, 43);
  EXPECT_EQ(q.rejected(), tracker.rejected())
      << "queue counter and tracker accounting must agree";

  // Admitted pushes never notify the observer.
  q.pop(1);
  EXPECT_TRUE(q.push(req(44, 4.0)));
  EXPECT_EQ(tracker.rejected(), 2);
}

TEST(RequestQueue, DeadlineShedsExpiredRequestsAtAdmission) {
  RequestQueue q(4);
  q.set_deadline(0.5);
  SloTracker tracker(0.5);
  q.set_reject_observer([&](const InferRequest& r, double now_s) {
    tracker.record_rejection(r, now_s);
  });

  // Within deadline at admission time: admitted.
  EXPECT_TRUE(q.push(req(0, 0.0), /*now_s=*/0.4));
  // Past deadline when the loop gets to it: shed, stamped at now_s.
  EXPECT_FALSE(q.push(req(1, 0.0), /*now_s=*/0.6));
  EXPECT_EQ(q.size(), 1);
  EXPECT_EQ(q.shed(), 1);
  EXPECT_EQ(q.rejected(), 1) << "sheds count as rejections";
  ASSERT_EQ(tracker.records().size(), 1u);
  EXPECT_EQ(tracker.records()[0].id, 1);
  EXPECT_EQ(tracker.records()[0].finish_s, 0.6) << "shed stamped at now_s";

  // Without set_deadline, push(r, now) never sheds.
  RequestQueue plain(4);
  EXPECT_TRUE(plain.push(req(0, 0.0), /*now_s=*/100.0));
  EXPECT_EQ(plain.shed(), 0);
}

TEST(RequestQueue, PushFrontRequeuesAtHeadBypassingCapacity) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(req(5, 1.0)));
  EXPECT_TRUE(q.push(req(6, 2.0)));
  // Fault requeue of an older (already-admitted) request: accepted at the
  // head even though the queue is at capacity — zero-loss invariant.
  q.push_front(req(3, 0.5));
  EXPECT_EQ(q.size(), 3);
  EXPECT_EQ(q.front().id, 3);
  EXPECT_EQ(q.requeued(), 1);
  EXPECT_EQ(q.admitted(), 2) << "a requeue is not a second admission";
  // Head insertion must keep the queue arrival-ordered.
  EXPECT_THROW(q.push_front(req(9, 9.0)), VfError);
}

TEST(RequestQueue, RequeueMergesByArrivalOrder) {
  // A first kill already returned request 3 to the head; a second kill now
  // evicts 4 and 8, which are younger than the head. Each lands at its
  // arrival position instead of tripping the head-order check.
  RequestQueue q(2);
  EXPECT_TRUE(q.push(req(5, 1.0)));
  EXPECT_TRUE(q.push(req(6, 2.0)));
  q.requeue(req(3, 0.5));
  q.requeue(req(8, 3.0));
  q.requeue(req(4, 0.8));
  q.requeue(req(1, 0.1));
  ASSERT_EQ(q.size(), 6);
  const std::int64_t order[] = {1, 3, 4, 5, 6, 8};
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_EQ(q.at(i).id, order[i]) << i;
  EXPECT_EQ(q.requeued(), 4);
  EXPECT_EQ(q.admitted(), 2) << "a requeue is not a second admission";
}

TEST(RequestQueue, RejectsOutOfOrderAdmission) {
  RequestQueue q(4);
  EXPECT_TRUE(q.push(req(0, 1.0)));
  EXPECT_THROW(q.push(req(1, 0.5)), VfError);
}

TEST(RequestQueue, GuardsInvalidUse) {
  EXPECT_THROW(RequestQueue(0), VfError);
  RequestQueue q(2);
  EXPECT_THROW(q.front(), VfError);
  EXPECT_THROW(q.pop(1), VfError);
  EXPECT_THROW(q.at(0), VfError);
}

}  // namespace
}  // namespace vf::serve
