// vf::serve::Server — deadline-aware inference serving of one model on
// virtual nodes.
//
//   arrival trace ──> RequestQueue ──> batching ──> engine.infer ──> SloTracker
//        (open loop)   (bounded,        (two modes,    (forward-only     (p50/p95/p99,
//                       backpressure)    below)          on VNs)           deadlines)
//
// Server is a thin front: it registers its one engine, unnamed, in a
// ModelRegistry and forwards every call to the ColocatedServer it owns
// (serve/colocation.h). There is one serving event loop; a single model is
// simply a deployment with one tenant. Being unnamed keeps the model's
// metrics under the bare "serve." prefix and its spans at model -1.
//
// Two batching modes, selected by ServerConfig::continuous:
//
//   * Batch-boundary (BatchFormer): the classic size-or-timeout policy —
//     a batch forms, every slice runs, every request in it finishes at
//     the batch barrier, and only then is the queue drained again.
//   * Continuous (SlotLedger): every virtual node is an independent slot.
//     A slice is admitted the moment a slot is free (FIFO prefix, lowest
//     VN id first), runs to its *own* completion time from the per-slice
//     cost model, and frees the slot — newly arrived requests flow into
//     the partially-formed in-flight batch instead of waiting for the
//     next full drain, which is what cuts queue wait at high load.
//
// Continuous mode also serves TOKEN STREAMS (requests with
// stream_tokens > 0): a long prefill slice admits the stream into a slot
// and samples its first token; short decode slices then chain through the
// same slot, one token per completion. With StreamPolicy::disaggregate the
// scheduler may pause a stream at a token boundary to lend its slot to a
// queued prefill — see serve/streaming.h.
//
// Elasticity is the loop the paper built for training: when load crosses
// hysteresis watermarks the server calls the engine's seamless resize(),
// growing or shrinking the device set under the *same* virtual nodes.
// In-flight slices keep the completion times the old mapping scheduled
// (compute is never interrupted), and the migration charge delays only
// subsequent dispatches: completions, admissions, token stamps and fault
// events inside the migration window land at their own stamps.
//
// Determinism contract: a replay is a pure function of (trace, policies,
// engine construction) — host worker count (EngineConfig::num_threads) can
// change wall-clock speed but not one bit of the records. bench_serving
// and tests/serve/ verify this across num_threads in {0, 2, 8}.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/colocation.h"

namespace vf::serve {

struct ServerConfig {
  std::int64_t queue_capacity = 1024;
  BatchPolicy batch;
  double deadline_s = 0.5;  ///< per-request latency SLO
  ElasticPolicy elastic;
  /// Continuous (in-flight) batching: per-VN slots freed as slices finish,
  /// arrivals admitted into the partially-formed in-flight batch. False
  /// keeps the drain-at-batch-boundary BatchFormer. In continuous mode a
  /// slice dispatches onto a free VN when a full slice's worth of requests
  /// (the VN's mapping batch share) is queued or the oldest request has
  /// waited `batch.max_wait_s` — the same size-or-timeout policy applied
  /// at slice granularity; `batch.max_batch` is a batch-boundary knob and
  /// is not consulted.
  bool continuous = false;
  /// Token-stream scheduling (prefill/decode disaggregation). Traces with
  /// stream requests require continuous mode.
  StreamPolicy stream;
  /// Deadline-aware load shedding at admission (RequestQueue::set_deadline
  /// with `deadline_s`): the graceful-degradation arm of the fault story
  /// under sustained capacity loss. Off by default: shedding changes which
  /// requests are served, so it is opt-in per workload.
  bool shed_expired = false;
};

class Server : public sched::DeviceLease {
 public:
  /// `engine` supplies the model replicas, mapping, and resize machinery;
  /// `request_pool` generates request payload features on demand. Both
  /// must outlive the server.
  Server(VirtualFlowEngine& engine, const Dataset& request_pool, ServerConfig config);

  /// Non-copyable, non-movable: the owned ColocatedServer points into the
  /// owned registry.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Attaches observability sinks before replay(); "serve.*" metrics and
  /// spans at model -1. See ColocatedServer::set_observability.
  void set_observability(obs::Observability obs) { server_.set_observability(obs); }
  /// Attaches a fault injector before replay() (continuous mode only).
  /// See ColocatedServer::set_fault_injector for the recovery semantics.
  void set_fault_injector(fault::FaultInjector* injector) {
    server_.set_fault_injector(injector);
  }

  /// Replays an open-loop arrival trace (ascending arrival order) to
  /// completion, draining the queue. One replay per Server.
  void replay(const std::vector<InferRequest>& trace);

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  // See ColocatedServer for the per-method contracts.

  void set_cluster_governed() { server_.set_cluster_governed(); }
  /// Opens `trace` for externally-pumped stepping (continuous mode only).
  /// The trace is not copied and must outlive the stepping run.
  void begin(const std::vector<InferRequest>& trace);
  void pump(double horizon_s) override { server_.pump(horizon_s); }
  double next_event_s() const override { return server_.next_event_s(); }
  sched::LoadSignal load() const override { return server_.load(); }
  double apply_grant(std::int64_t devices) override {
    return server_.apply_grant(devices);
  }
  bool drained() const override { return server_.drained(); }
  /// Exports the SLO summary + gauges to the attached metrics registry
  /// (idempotent). replay() calls it at the drain.
  void finish() { server_.finish(); }

  double now_s() const { return server_.now_s(); }
  const SloTracker& slo() const { return server_.slo(0); }
  const RequestQueue& queue() const { return server_.queue(0); }
  const std::vector<ResizeEvent>& resizes() const { return server_.resizes(); }
  const std::vector<BatchEvent>& batches() const { return server_.batches(); }
  const std::vector<FaultRecord>& faults() const { return server_.faults(); }

 private:
  ModelRegistry registry_;
  ColocatedServer server_;
};

}  // namespace vf::serve
