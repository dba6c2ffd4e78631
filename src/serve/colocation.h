// Multi-model co-location: several models' virtual nodes multiplexed onto
// ONE shared physical device set.
//
// The paper's decoupling makes this almost free conceptually: a model
// only ever names virtual nodes, so two models are just two independent
// VN sets that happen to resolve onto the same devices (the transparent-
// virtualization direction FlexNPU pushes for co-located LLM serving).
// What a co-located deployment adds over two dedicated servers is
// *statistical multiplexing*: when model A bursts while model B idles, A
// borrows the whole device set instead of being capped at its dedicated
// half — bench_colocation measures exactly that trade against two
// dedicated half-size device sets.
//
//   ModelRegistry (name, engine, request pool, per-model SLO/queue/batch/share)
//        |                        2+ models
//        v
//   ColocatedServer ── per-model RequestQueue + SloTracker + SlotLedger
//        |              + TokenStreamer; one shared virtual clock +
//        |              per-device free times + per-model share ledger
//        v
//   share-weighted deadline arbiter ── shared elastic budget (sched/elastic.h)
//
// Arbiter rule (the determinism contract's core): whenever slots are
// free, dispatchable slices are claimed in ascending
//
//     (deadline key + share debt, model id, VN id)
//
// order. A model's deadline key is its oldest queued request's arrival
// stamp plus the model's SLO; the share debt is the model's cumulative
// device time normalized by its configured weight (ModelConfig::share).
// Under contention the debt term dominates — a model that has consumed
// more than its weighted share of device time accumulates debt faster and
// yields the next slot — which is what fixes the small-batch starvation
// the deadline-only arbiter had: a small-batch model's cheap slices let
// an aggressive co-tenant's deadline keys always look more urgent, and
// the small model fell arbitrarily far below any intended split. With
// balanced consumption the debts advance in lockstep and the rule reduces
// to the old earliest-deadline order. An idle model's debt snaps up to
// the system's virtual time when it re-activates, so idling never banks
// credit (standard start-time fair queueing hygiene).
//
// Completions are processed in (completion time, model id, VN id) order,
// arrivals admitted in model-id order at equal stamps. Every decision is
// a pure function of (traces, policies, cost model) on the virtual clock
// — the full per-model record streams replay bit-identically across host
// worker counts, in both batching modes. Token streams (serve/streaming.h)
// ride the continuous mode: per-model prefill/decode chains compete
// through the same arbiter, and every dispatch — prefill, decode, resume,
// classify — is charged to its model's share ledger.
//
// Elasticity is a SHARED budget: grow/shrink decisions come from the
// combined backlog (sum of queue depths) plus combined in-flight load via
// the shared hysteresis rule (sched::elastic_resize_target), and a resize
// moves every engine to the same device count — the engines stay in
// lockstep on the shared device set. In-flight slices keep the completion
// times their dispatch-time mapping scheduled (the resize is seamless).
//
// Migration is ROLLING: the models' state all-gathers ride the same
// shared links, so they serialize — most-loaded model first (combined
// backlog order, model id tie-break) — and each model's NEW dispatches
// resume the moment its own state has landed, instead of every model
// stalling for the sum. The urgent model therefore pays exactly the
// migration price a dedicated server would have charged it, and the
// quiet models absorb the queueing. Only new dispatches wait for a
// cutover: in-flight completions, admissions, token stamps and fault
// events all land at their own stamps. A resize is also atomic: no new
// resize decision fires until the last model has cut over. A mid-stream
// decode chain stalls during its model's cutover window and resumes at
// the cutover stamp.
//
// The single-model Server (serve/server.h) is a front over this loop: it
// registers its one engine under an empty model name, which keeps its
// metrics under the bare "serve." prefix and its spans at model -1.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"
#include "device/spec.h"
#include "fault/fault.h"
#include "sched/lease.h"
#include "serve/batch_former.h"
#include "serve/dispatch.h"
#include "serve/request_queue.h"
#include "serve/slo_tracker.h"
#include "serve/slot_ledger.h"
#include "serve/streaming.h"

namespace vf::serve {

/// Load-triggered elasticity with hysteresis: grow (double the device
/// count) when the backlog reaches `high_watermark`, shrink (halve) when
/// it falls to `low_watermark`, never within `cooldown_batches` units of
/// work (formed batches, or completed slices in continuous mode) of the
/// previous resize. high > low keeps the loop from oscillating on a
/// steady queue.
struct ElasticPolicy {
  bool enabled = true;
  std::int64_t high_watermark = 64;
  std::int64_t low_watermark = 4;
  std::int64_t min_devices = 1;
  std::int64_t max_devices = 8;  ///< must not exceed the mapping's VN count
  DeviceType device = DeviceType::kV100;
  std::int64_t cooldown_batches = 4;
};

/// One elastic reconfiguration (or kill remap) taken during a replay.
struct ResizeEvent {
  double time_s = 0.0;  ///< virtual time the last model cut over
  std::int64_t from_devices = 0;
  std::int64_t to_devices = 0;
  std::int64_t queue_depth = 0;   ///< depth that triggered the decision
  double migration_s = 0.0;       ///< seamless all-gather cost charged
};

/// One injected fault the replay acted on (or explicitly skipped).
struct FaultRecord {
  double time_s = 0.0;          ///< the fault's planned virtual stamp
  fault::FaultKind kind = fault::FaultKind::kKill;
  std::int64_t device = -1;     ///< resolved device slot (kills/stragglers)
  bool skipped = false;         ///< kill skipped: the set was at one device
  std::int64_t evicted_slices = 0;    ///< in-flight slices torn off the device
  std::int64_t requeued_requests = 0; ///< classify/prefill requests requeued
  double migration_s = 0.0;     ///< VN-remap all-gather charged by the kill
};

/// Per-model serving configuration within a co-located deployment.
struct ModelConfig {
  /// Label for tables, diagnostics and metric names ("serve.<name>.").
  /// Only a sole registered model may be unnamed: it exports under the
  /// bare "serve." prefix and stamps model -1 on its spans and work units.
  std::string name = "model";
  std::int64_t queue_capacity = 1024;
  BatchPolicy batch;              ///< size-or-timeout policy for this model
  double deadline_s = 0.5;        ///< per-request SLO; base of the arbiter key
  /// Device-time share weight of the continuous arbiter. Shares are
  /// relative (normalized over the registered models): under sustained
  /// contention each model's consumed device time converges to
  /// share / Σ shares of the total, regardless of how its slice costs
  /// compare to its co-tenants'. Must be positive.
  double share = 1.0;
  /// Deadline-aware load shedding at admission: requests already past the
  /// SLO when the loop gets to them are bounced instead of queued to a
  /// guaranteed miss. Only batch-boundary mode admits late (arrivals
  /// during a batch wait for its barrier); the continuous loop admits
  /// every arrival at its own stamp. Off by default.
  bool shed_expired = false;
};

/// Binds each co-located model's engine, request pool, and config under a
/// dense model id (registration order). Engines and pools must outlive the
/// registry and any server built on it; each engine may appear only once
/// (its virtual nodes are one model's identity).
class ModelRegistry {
 public:
  std::int32_t add(VirtualFlowEngine& engine, const Dataset& request_pool,
                   ModelConfig config);

  std::int64_t size() const { return static_cast<std::int64_t>(entries_.size()); }
  VirtualFlowEngine& engine(std::int32_t m) const;
  const Dataset& pool(std::int32_t m) const;
  const ModelConfig& config(std::int32_t m) const;

 private:
  struct Entry {
    VirtualFlowEngine* engine = nullptr;
    const Dataset* pool = nullptr;
    ModelConfig config;
  };
  std::vector<Entry> entries_;
};

/// Configuration of the shared device set.
struct ColocationConfig {
  /// Shared elastic budget over the co-located device set. Watermarks act
  /// on the COMBINED backlog (and, for shrink, combined in-flight load).
  ElasticPolicy elastic;
  /// Continuous (per-VN slot) batching — co-location's native mode: slots
  /// of every model compete for devices at slice granularity. False
  /// serializes whole formed batches (each on the full device set) in
  /// deadline order — the batch-boundary baseline (deadline-only: the
  /// share-weighted arbiter and token streams are continuous-mode
  /// features).
  bool continuous = true;
  /// Token-stream scheduling (prefill/decode disaggregation), applied
  /// per model in continuous mode.
  StreamPolicy stream;
};

/// Serves the registered models on one shared device set; with one model
/// it is the single-model Server's loop. One replay per server.
class ColocatedServer : public sched::DeviceLease {
 public:
  /// All engines must start on identical device counts (they stay in
  /// lockstep through shared resizes). Engines, pools, and the registry
  /// must outlive the server.
  ColocatedServer(ModelRegistry& registry, ColocationConfig config);

  ColocatedServer(const ColocatedServer&) = delete;
  ColocatedServer& operator=(const ColocatedServer&) = delete;

  /// Attaches observability sinks (obs/obs.h; either pointer may be null)
  /// before replay(). Spans carry each slice's model id; per-model metrics
  /// live under "serve.<model name>."; shared-set events (resizes, the
  /// devices gauge) under "serve.". Rolling migrations additionally mark a
  /// per-model "cutover" instant at each dispatch_ready_ stamp, and the
  /// arbiter's share virtual time is exported as a per-model gauge — the
  /// share-starvation signal on the timeline. Recording never perturbs the
  /// schedule.
  void set_observability(obs::Observability obs);

  /// Attaches a fault injector (src/fault/) whose events the continuous
  /// loop processes at their planned stamps. A kill evicts the dead device
  /// slot's in-flight slices of EVERY model (classify/prefill requests
  /// merge back into their queue in arrival order; decode chains park and
  /// resume from their last landed token), remaps each engine's VNs onto
  /// the survivors as a rolling migration (deepest-backlog model first,
  /// like perform_resize), and caps the elastic budget until a recover;
  /// stragglers re-apply cost-model slowdowns; comm faults retry the next
  /// slice's logits return. Must be called before replay(); requires
  /// continuous mode; the injector must outlive the replay.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Replays one open-loop arrival trace per model (indexed by model id,
  /// each ascending in arrival time) to completion, draining every queue.
  /// In continuous mode this is begin(traces); pump(+inf); finish().
  void replay(const std::vector<std::vector<InferRequest>>& traces);

  // ---- Cluster-governed stepping (the sched::DeviceLease protocol) ----
  //
  // A co-located deployment is ONE lease: the ClusterController sizes the
  // shared device set as a unit and the internal arbiter keeps splitting
  // it between the co-tenants. The load signal is combined (sum of queues
  // and in-flight; the worst relative deadline pressure picks the
  // reported SLO), and a grant is a rolling migration.

  /// Switches to cluster governance (before begin()): disables the shared
  /// internal elastic loop and enables apply_grant(); the ElasticPolicy
  /// band becomes the load() signal's advisory band. Requires continuous
  /// mode; validates the band regardless of `enabled`.
  void set_cluster_governed();

  /// Opens the per-model traces for externally-pumped stepping
  /// (continuous mode only; validation matches replay(); one begin per
  /// server). The traces are not copied and must outlive the run.
  void begin(const std::vector<std::vector<InferRequest>>& traces);

  /// Processes every internal event due at or before `horizon_s` (slice
  /// completions, arrivals, faults, timeouts, cutovers) and, when work
  /// remains, advances the clock to `horizon_s` so a grant applied next is
  /// stamped at controller time. `horizon_s = +inf` runs to the drain.
  void pump(double horizon_s) override;
  double next_event_s() const override;
  sched::LoadSignal load() const override;
  /// Resizes the shared set to `devices` through perform_resize (rolling
  /// migration, ResizeEvent record, obs markers). Returns the total
  /// serialized migration seconds.
  double apply_grant(std::int64_t devices) override;
  bool drained() const override;

  /// Exports the per-model SLO summaries + devices gauge to the attached
  /// metrics registry (idempotent). replay() calls it at the drain.
  void finish();

  double now_s() const { return clock_; }
  /// Models frozen at construction (a registry that grows afterwards is
  /// rejected at replay; these accessors never index past the snapshot).
  std::int64_t num_models() const { return static_cast<std::int64_t>(models_.size()); }
  /// Devices currently backing the shared set (all engines agree).
  std::int64_t shared_devices() const;

  const SloTracker& slo(std::int32_t m) const;
  const RequestQueue& queue(std::int32_t m) const;
  const std::vector<ResizeEvent>& resizes() const { return resizes_; }
  /// Work units across all models; BatchEvent::model carries the id.
  const std::vector<BatchEvent>& batches() const { return batches_; }
  /// Injected faults the replay acted on (shared-set events; a kill's
  /// eviction/requeue counts aggregate over all models).
  const std::vector<FaultRecord>& faults() const { return faults_; }
  /// Raw device-seconds model m's dispatches consumed (continuous mode).
  /// bench_streaming's share gate checks the ratio of these against the
  /// configured ModelConfig::share weights.
  double device_time_used(std::int32_t m) const;

 private:
  friend class Server;  // opens its one trace without copying it

  /// One read-only view per model of the traces being replayed.
  using TraceSpans = std::vector<std::span<const InferRequest>>;
  static TraceSpans spans_of(const std::vector<std::vector<InferRequest>>& traces);
  void replay_traces(TraceSpans traces);
  void begin_traces(TraceSpans traces);
  /// One-shot trace validation shared by both modes.
  void open(TraceSpans traces);

  /// Mutable per-model serving state (config lives in the registry).
  struct ModelState {
    ModelState(VirtualFlowEngine& engine, const Dataset& pool,
               const ModelConfig& mc, std::int32_t m)
        : metrics_prefix(mc.name.empty() ? "serve." : "serve." + mc.name + "."),
          obs_model(mc.name.empty() ? -1 : m),
          queue(mc.queue_capacity),
          former(mc.batch),
          tracker(mc.deadline_s),
          ledger(engine.mapping().total_vns()),
          dispatcher(engine, pool),
          streamer(engine.mapping().total_vns(), pool.size()),
          pending_chain(static_cast<std::size_t>(engine.mapping().total_vns()), 0) {}
    /// "serve.<name>." (or "serve." for an unnamed sole model).
    std::string metrics_prefix;
    /// Model id stamped on spans, markers and work units (-1 if unnamed).
    std::int32_t obs_model;
    RequestQueue queue;
    BatchFormer former;
    SloTracker tracker;
    SlotLedger ledger;
    SliceDispatcher dispatcher;
    TokenStreamer streamer;
    /// VNs whose stream slice finished and wants another token; the slots
    /// stay busy (holding the finished slice) until the decode
    /// continuation is readmitted — possibly deferred past a rolling
    /// migration's cutover stamp for this model.
    std::vector<std::int32_t> continuations;
    /// pending_chain[vn] != 0 while vn sits in `continuations`: guards the
    /// completion scan from absorbing the same finished slice twice when a
    /// cutover defers the readmit across event-loop iterations.
    std::vector<char> pending_chain;
    std::size_t next_arrival = 0;
  };

  void replay_batch_boundary();

  // Continuous-mode transitions (one pump iteration = admit, complete,
  // faults, elastic decision, dispatch phases; see pump()).
  void finalize_span_depth();
  void complete_due();
  void readmit_continuations();
  void try_dispatch();
  void try_resumes();
  void process_faults_due();
  double next_event_internal() const;

  /// Admits every model's arrivals up to the clock, in model-id order.
  /// Re-activation snaps an idle model's share debt up to the system
  /// virtual time (idling banks no credit).
  void admit_up_to_clock();
  /// Charges `compute_s` device-seconds of model `m` to the share ledger.
  void charge(std::int32_t m, double compute_s);
  /// Length of model m's dispatchable classify prefix: queued requests up
  /// to `cap`, stopping at the first stream (FIFO order never lets a
  /// classify slice jump over a queued stream).
  std::int64_t classify_prefix(const ModelState& st, std::int64_t cap) const;
  /// Checks the ElasticPolicy band against every model's VN count.
  void validate_band() const;
  /// Combined resize decision + lockstep execution (both modes).
  void resize_if_needed(std::int64_t combined_inflight);
  /// Rolling-migration order: deepest backlog first, model id tie-break.
  std::vector<std::int32_t> cutover_order() const;
  /// Executes a decided resize as a rolling migration: engines cut over
  /// to `target` devices serially (deepest combined backlog first, model
  /// id tie-break); model m's dispatches resume at dispatch_ready_[m].
  void perform_resize(std::int64_t target, std::int64_t depth);
  /// True while a rolling migration is still cutting models over.
  bool migration_in_progress() const;
  /// Dispatches one slice of model `m` onto its lowest free VN slot: a
  /// prefill when a stream heads the queue, a classify slice otherwise.
  void dispatch_slice(std::int32_t m);
  /// Applies a pending one-shot comm fault to a freshly dispatched slot
  /// (logits-return retry: done_s slips by one comm charge); identity
  /// when no injector or no fault is pending.
  Slot maybe_comm_fault(Slot slot);
  /// Executes one formed batch of model `m` on the full device set.
  void execute_model_batch(std::int32_t m, std::int64_t take);

  ModelRegistry& registry_;
  ColocationConfig config_;
  std::vector<ModelState> models_;
  /// The traces being replayed (empty until begin()/replay()).
  TraceSpans traces_;

  double clock_ = 0.0;
  /// Per-device busy horizon on the shared set; devices serialize slices
  /// of ALL models (continuous mode). Rebuilt after every resize.
  std::vector<double> device_free_;
  /// Rolling-migration cutover stamps: model m dispatches nothing new
  /// before dispatch_ready_[m] (admissions and in-flight completions
  /// continue throughout).
  std::vector<double> dispatch_ready_;

  // Share ledger (continuous mode). share_weight_ is each model's
  // normalized share fraction; share_time_ its cumulative device time
  // divided by that fraction — the "debt" the arbiter adds to the
  // deadline key; device_seconds_ the raw consumption for read-out;
  // global_vtime_ the high-water debt used to re-sync re-activating
  // models.
  std::vector<double> share_weight_;
  std::vector<double> share_time_;
  std::vector<double> device_seconds_;
  double global_vtime_ = 0.0;

  std::int64_t work_since_resize_ = 0;
  bool replayed_ = false;
  bool cluster_governed_ = false;
  bool finished_ = false;
  std::vector<ResizeEvent> resizes_;
  std::vector<BatchEvent> batches_;

  /// Fault injector (null = no faults); see set_fault_injector.
  fault::FaultInjector* injector_ = nullptr;
  std::vector<FaultRecord> faults_;

  /// Observability sinks (null = off); see set_observability.
  obs::Observability obs_;
  /// Cached per-model share-virtual-time gauges (empty = off), updated on
  /// every charge() so share starvation is visible over virtual time.
  std::vector<obs::Gauge*> share_gauges_;
};

}  // namespace vf::serve
