// cluster-cosched: a ClusterController under weighted fair sharing over 120
// simulated V100s. Tenants: one two-model ColocatedServer lease (a classify
// model and a streaming model with staggered bursts), one EngineTrainLease
// on a small-batch task, and a queue of analytic training jobs that
// saturates the pool. The timed phase is run(); one operation is one
// controller event, the host time between successive policy calls.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "alloc_count.h"
#include "decorators.h"
#include "trace.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr std::int64_t kDevices = 120;
constexpr std::int64_t kServeMax = 16;  // two tenants' worth of VNs
constexpr std::int64_t kLeaseSteps = 60;
constexpr std::int64_t kTrainSteps = 6000;
constexpr double kDeadlineS = 0.5;
constexpr double kSteadyRps = 120.0;
constexpr double kBurstRps = 1200.0;
constexpr double kBurstS = 3.0;
constexpr double kStreamSteadyRps = 10.0;
constexpr double kStreamBurstRps = 40.0;
constexpr int kCycles = 4;  // burst cycles per serving trace

double secs(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e9; }

/// One model's task, recipe, engine and (when tracing) decorated pool.
struct Box {
  vf::ProxyTask task;
  vf::TrainRecipe recipe;
  vf::Sequential model;
  std::unique_ptr<TracedDataset> traced_pool;
  const vf::Dataset* pool;
  vf::VirtualFlowEngine engine;

  Box(const std::string& name, std::uint64_t seed, std::int64_t devices, std::int64_t vns,
      bool traced)
      : task(vf::make_task(name, seed)),
        recipe(vf::make_recipe(name)),
        model(traced ? traced_model(vf::make_proxy_model(name, seed))
                     : vf::make_proxy_model(name, seed)),
        traced_pool(traced ? std::make_unique<TracedDataset>(*task.val, "data.example_into")
                           : nullptr),
        pool(traced ? traced_pool.get() : task.val.get()),
        engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
               vf::model_profile("bert-base"), vf::make_devices(vf::DeviceType::kV100, devices),
               vf::VnMapping::even(vns, devices, recipe.global_batch), config(seed)) {}

  static vf::EngineConfig config(std::uint64_t seed) {
    vf::EngineConfig cfg;
    cfg.seed = seed;
    cfg.enforce_memory = false;
    cfg.num_threads = kWorkers;
    return cfg;
  }
};

std::vector<vf::JobSpec> analytic_jobs() {
  struct Shape {
    std::int64_t demand;
    double arrival;
  };
  const std::vector<Shape> shapes = {{32, 0.0}, {24, 0.0}, {16, 2.0}, {16, 4.0},
                                     {8, 6.0},  {8, 8.0},  {8, 10.0}, {8, 12.0}};
  std::vector<vf::JobSpec> jobs;
  std::int64_t id = 100;
  for (const Shape& s : shapes) {
    vf::JobSpec j;
    j.id = id++;
    j.arrival_s = s.arrival;
    j.workload = "resnet56";
    j.profile = vf::model_profile("resnet56");
    j.global_batch = 128;
    j.total_steps = kTrainSteps;
    j.demand_gpus = s.demand;
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace

Rep run_cluster_cosched(const RepOptions& o) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  // The co-located pair: a classify model bursting first, a streaming
  // model bursting after it, on one shared device set.
  Box classify("cola-sim", o.seed, 2, kServeMax, o.traced);
  Box stream("mrpc-sim", o.seed + 1, 2, kServeMax, o.traced);
  Box trainee("mrpc-sim", o.seed + 2, 2, 8, o.traced);

  vf::serve::ModelRegistry registry;
  vf::serve::ModelConfig mc;
  mc.name = "classify";
  mc.queue_capacity = 1 << 16;  // admission never bounces: no request fails
  mc.batch = {64, 0.01};
  mc.deadline_s = kDeadlineS;
  registry.add(classify.engine, *classify.pool, mc);
  mc.name = "stream";
  registry.add(stream.engine, *stream.pool, mc);
  vf::serve::ColocationConfig ccfg;
  ccfg.continuous = true;
  ccfg.stream.disaggregate = true;
  ccfg.elastic.enabled = true;
  ccfg.elastic.high_watermark = 48;
  ccfg.elastic.low_watermark = 1;
  ccfg.elastic.min_devices = 2;
  ccfg.elastic.max_devices = kServeMax;
  ccfg.elastic.cooldown_batches = 1;
  vf::serve::ColocatedServer colo(registry, ccfg);
  colo.set_cluster_governed();
  vf::serve::StreamShape shape;
  shape.stream_fraction = 1.0;
  // Each cycle: the classify model bursts, then the streaming model.
  std::vector<vf::serve::TracePhase> classify_phases = {{kSteadyRps, 0.5}};
  std::vector<vf::serve::TracePhase> stream_phases = {{kStreamSteadyRps, 0.5 + kBurstS}};
  for (int c = 0; c < kCycles; ++c) {
    classify_phases.push_back({kBurstRps, kBurstS});
    classify_phases.push_back({kSteadyRps / 2.0, kBurstS + 1.5});
    stream_phases.push_back({kStreamBurstRps, kBurstS});
    stream_phases.push_back({kStreamSteadyRps, kBurstS + 1.5});
  }
  const std::vector<std::vector<vf::serve::InferRequest>> traces = {
      vf::serve::phased_poisson_trace(o.seed, classify_phases, classify.pool->size()),
      vf::serve::streaming_trace(o.seed + 1, stream_phases, stream.pool->size(), shape)};
  colo.begin(traces);

  vf::EngineTrainLease lease(trainee.engine, kLeaseSteps, vf::DeviceType::kV100);
  TracedLease traced_colo(colo), traced_lease(lease);
  vf::sched::DeviceLease& colo_lease = o.traced ? static_cast<vf::sched::DeviceLease&>(traced_colo)
                                                : static_cast<vf::sched::DeviceLease&>(colo);
  vf::sched::DeviceLease& train_lease = o.traced
                                            ? static_cast<vf::sched::DeviceLease&>(traced_lease)
                                            : static_cast<vf::sched::DeviceLease&>(lease);

  vf::JobSpec serve_spec;
  serve_spec.id = 1;
  serve_spec.kind = vf::JobKind::kServe;
  serve_spec.priority = 10.0;
  serve_spec.demand_gpus = 4;
  serve_spec.min_gpus = 2;
  serve_spec.max_gpus = kServeMax;
  vf::JobSpec lease_spec;
  lease_spec.id = 99;
  lease_spec.workload = "bert-base";
  lease_spec.profile = vf::model_profile("bert-base");
  lease_spec.global_batch = trainee.recipe.global_batch;
  lease_spec.total_steps = kLeaseSteps;
  lease_spec.demand_gpus = 2;

  vf::ElasticWfsScheduler wfs;
  PolicyProbe policy(wfs);
  vf::ClusterInventory inventory;
  inventory.per_type[vf::DeviceType::kV100] = kDevices;
  vf::ClusterController controller(inventory, policy);
  controller.add_serve_job(serve_spec, colo_lease);
  controller.add_train_lease(lease_spec, train_lease);
  const std::vector<vf::JobSpec> jobs = analytic_jobs();
  for (const vf::JobSpec& j : jobs) controller.add_train_job(j);
  rep.setup_s = secs(t0, now_ns());
  if (o.setup_only) return rep;

  const std::int64_t heap0 = heap_allocs();
  rep.phase_start_ns = now_ns();
  vf::ClusterReport report;
  {
    Scope scope(Tracer::get().intern("sched.controller.run"));
    report = controller.run();
  }
  rep.phase_end_ns = now_ns();
  const auto heap = static_cast<double>(heap_allocs() - heap0);
  colo.finish();
  rep.time_to_result_s = secs(rep.phase_start_ns, rep.phase_end_ns);

  // One controller event: from one policy call to the next (the first
  // from the start of run(), the last until run() returns).
  const std::vector<std::int64_t>& calls = policy.calls_ns();
  std::int64_t prev = rep.phase_start_ns;
  for (const std::int64_t c : calls) {
    rep.op_ms.push_back(static_cast<double>(c - prev) / 1e6);
    prev = c;
  }
  rep.op_ms.push_back(static_cast<double>(rep.phase_end_ns - prev) / 1e6);

  // Checks and SLO read-outs per model; a failed request is a miss.
  double worst_quality = 1.0, worst_p99_ms = 0.0, served = 0.0, failed = 0.0, arrivals = 0.0;
  double rows = 0.0, queue_p99_ms = 0.0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<double> itl_ms;
  for (std::int32_t m = 0; m < 2; ++m) {
    const auto& records = colo.slo(m).records();
    const auto& trace = traces[static_cast<std::size_t>(m)];
    std::set<std::int64_t> ids;
    double met = 0.0;
    for (const vf::serve::RequestRecord& r : records) {
      ids.insert(r.id);
      if (r.rejected) {
        failed += 1.0;
        continue;
      }
      served += 1.0;
      if (r.deadline_met) met += 1.0;
      if (r.streamed() && static_cast<std::int64_t>(r.tokens.size()) !=
                              trace[static_cast<std::size_t>(r.id)].stream_tokens)
        rep.errors.push_back("stream " + std::to_string(r.id) + " lost tokens");
      for (std::size_t i = 1; i < r.token_stamps.size(); ++i)
        itl_ms.push_back((r.token_stamps[i] - r.token_stamps[i - 1]) * 1e3);
      for (const double v : {r.dispatch_s, r.finish_s, r.first_token_s}) h = fnv(h, &v, sizeof v);
      h = fnv(h, &r.id, sizeof r.id);
    }
    if (ids.size() != records.size() || ids.size() != trace.size())
      rep.errors.push_back("model " + std::to_string(m) + ": arrivals not accounted exactly once");
    arrivals += static_cast<double>(trace.size());
    const vf::serve::SloSummary sum = colo.slo(m).summary();
    worst_quality = std::min(worst_quality, met / static_cast<double>(trace.size()));
    worst_p99_ms = std::max(worst_p99_ms, sum.p99_s * 1e3);
    queue_p99_ms = std::max(queue_p99_ms, sum.p99_queue_wait_s * 1e3);
    if (m == 1) {
      rep.exact["serve.ttft_p50_ms"] = sum.p50_ttft_s * 1e3;
      rep.exact["serve.itl_p99_ms"] = sum.p99_itl_s * 1e3;
    }
  }
  for (const vf::serve::BatchEvent& b : colo.batches()) rows += static_cast<double>(b.size);
  double migration = 0.0;
  for (const vf::serve::ResizeEvent& e : colo.resizes()) migration += e.migration_s;

  // Training side: device-seconds granted, the part not lost to resize
  // pauses, the queueing before each first start, and the work done.
  const double penalty = policy.resize_penalty_s();
  double granted = 0.0, useful = 0.0, wait = 0.0, examples = 0.0, resizes = 0.0;
  for (const vf::JobState& j : report.jobs) {
    if (!j.is_serve() && !j.finished())
      rep.errors.push_back("job " + std::to_string(j.spec.id) + " did not finish");
    for (const vf::AllocSegment& seg : j.timeline) {
      const auto n = static_cast<double>(seg.alloc.total());
      const double len = seg.t1 - seg.t0;
      granted += n * len;
      useful += n * (j.is_serve() ? len : std::max(0.0, len - penalty));
    }
    if (j.is_serve()) continue;
    wait += std::max(0.0, j.first_start_s - j.spec.arrival_s);
    examples += static_cast<double>(j.spec.total_steps * j.spec.global_batch);
    resizes += static_cast<double>(j.resizes);
  }
  if (lease.steps_done() != kLeaseSteps) rep.errors.push_back("training lease did not finish");
  for (const vf::GrantRecord& g : report.grants) {
    for (const double v : {g.time_s, g.migration_s}) h = fnv(h, &v, sizeof v);
    h = fnv(h, &g.to_devices, sizeof g.to_devices);
  }
  h = fnv(h, &report.train_makespan_s, sizeof report.train_makespan_s);
  rep.fingerprint = h;

  const auto events = static_cast<double>(calls.size());
  rep.work = served;
  rep.attempted = static_cast<std::int64_t>(arrivals);
  rep.failed = static_cast<std::int64_t>(failed);
  rep.exact["quality_frac"] = worst_quality;
  rep.exact["fail_frac"] = failed / arrivals;
  rep.exact["sim_time_to_result_s"] = report.train_makespan_s;
  rep.exact["sim_tail_ms"] = worst_p99_ms;
  rep.exact["sim_capacity_per_s"] = examples / report.train_makespan_s;
  rep.exact["sim_device_s"] = granted;
  rep.exact["serve.slices"] = static_cast<double>(colo.batches().size());
  rep.exact["serve.rows_per_slice"] =
      colo.batches().empty() ? 0.0 : rows / static_cast<double>(colo.batches().size());
  rep.exact["serve.queue_wait_p99_ms"] = queue_p99_ms;
  rep.exact["serve.itl_p50_ms"] = percentile(itl_ms, 50.0);
  rep.exact["serve.resizes"] = static_cast<double>(colo.resizes().size());
  rep.exact["serve.migration_s"] = migration;
  rep.exact["sched.policy.calls"] = events;
  rep.exact["sched.grants"] = static_cast<double>(report.grants.size());
  rep.exact["sched.resize_penalty_s"] = resizes * penalty;
  rep.exact["sched.train_wait_s"] = wait;
  rep.exact["sched.useful_device_frac"] = useful / granted;
  rep.host["sched.heap_allocs_per_event"] = heap / events;
  return rep;
}

}  // namespace pb
