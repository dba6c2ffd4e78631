// Bounded admission queue for inference requests.
//
// Backpressure is the admission story: when the queue is at capacity, a
// new request is rejected immediately (the caller records the rejection)
// rather than queued into unbounded latency. With a deadline configured
// (set_deadline), admission also sheds requests that are already past
// their deadline at admission time — under sustained capacity loss they
// would consume a slot only to miss, so dropping them at the door is the
// graceful-degradation half of the fault story. FIFO order is part of the
// determinism contract — the BatchFormer only ever takes a prefix, so the
// batch sequence is a pure function of the arrival trace and the policy.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "serve/request.h"

namespace vf::serve {

class RequestQueue {
 public:
  explicit RequestQueue(std::int64_t capacity);

  /// Called with each request the queue drops at admission (capacity or
  /// deadline shed), before push() returns false, along with the virtual
  /// stamp of the drop. The serving loop wires this to
  /// SloTracker::record_rejection so drop accounting lives at the
  /// backpressure point itself — every replay path (batch-boundary or
  /// continuous) gets the dropped request's id recorded without
  /// re-implementing it.
  void set_reject_observer(std::function<void(const InferRequest&, double)> observer);

  /// Enables deadline shedding: push(r, now_s) drops requests with
  /// now_s - arrival_s > deadline_s (stamped as rejections at now_s, never
  /// counted as queue wait).
  void set_deadline(double deadline_s);

  /// Admits `r` unless the queue is full. Returns false (and counts the
  /// rejection, notifying the reject observer at the arrival stamp) when
  /// capacity is reached — the backpressure signal.
  bool push(const InferRequest& r);

  /// Admission at virtual time `now_s`: sheds `r` first when a deadline is
  /// configured and already blown, then applies the capacity check.
  bool push(const InferRequest& r, double now_s);

  /// Returns a fault-evicted request to the *head* of the queue; it must
  /// not be younger than the current head. Requeues bypass capacity
  /// (zero-loss invariant: an admitted request is never dropped by
  /// recovery) and never re-count as admissions.
  void push_front(const InferRequest& r);

  /// Returns a fault-evicted request to its arrival (id) position, so the
  /// queue stays arrival-ordered whatever was requeued before it: an
  /// earlier kill in the same cutover window can leave older requests at
  /// the head while younger ones are still in flight. Same capacity and
  /// accounting rules as push_front (which it uses at the head).
  void requeue(const InferRequest& r);

  /// Removes and returns the oldest `n` requests (n <= size()).
  std::vector<InferRequest> pop(std::int64_t n);

  /// Oldest queued request; queue must be non-empty.
  const InferRequest& front() const;
  /// Request at queue position `i` (0 = oldest).
  const InferRequest& at(std::int64_t i) const;

  bool empty() const { return q_.empty(); }
  std::int64_t size() const { return static_cast<std::int64_t>(q_.size()); }
  std::int64_t capacity() const { return capacity_; }
  std::int64_t admitted() const { return admitted_; }
  std::int64_t rejected() const { return rejected_; }
  /// Rejections that were deadline sheds (subset of rejected()).
  std::int64_t shed() const { return shed_; }
  /// Fault requeues accepted through push_front or requeue.
  std::int64_t requeued() const { return requeued_; }

 private:
  bool reject(const InferRequest& r, double now_s);

  std::int64_t capacity_;
  std::deque<InferRequest> q_;
  std::function<void(const InferRequest&, double)> reject_observer_;
  double deadline_s_ = 0.0;
  bool shed_enabled_ = false;
  std::int64_t admitted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t requeued_ = 0;
};

}  // namespace vf::serve
