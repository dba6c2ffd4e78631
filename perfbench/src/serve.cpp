// serve-stream-elastic: one Server with continuous batching, prefill/decode
// disaggregation and elastic sizing over 1..8 V100s, replaying a seeded
// open-loop streaming trace (steady, burst, steady) under a seeded chaos
// fault plan. The harness drives begin(), then pump() over fixed windows
// of virtual time, then finish(); every arrival is stamped on the virtual
// clock before timing starts.
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

constexpr std::int64_t kVns = 8;
constexpr std::int64_t kStartDevices = 4;
constexpr double kWindowS = 0.1;       // virtual time per pump window
constexpr double kDeadlineS = 0.5;     // classify latency SLO; a stream's TTFT SLO
constexpr double kSteadyRps = 15.0;
constexpr double kSteadyS = 12.0;
constexpr double kBurstRps = 60.0;
constexpr double kBurstS = 6.0;
// Steady-then-burst cycles per trace. Per-request host cost depends on the
// request mix (streams, token counts), so a longer trace keeps the seed
// from moving the host-time figures.
constexpr int kCycles = 8;
// Limits a capacity-ladder rung must meet (p99 TTFT, p99 inter-token gap,
// no failed request).
constexpr double kLadderTtftMs = 1500.0;
constexpr double kLadderItlMs = 500.0;

double secs(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e9; }

std::vector<vf::serve::InferRequest> stream_trace(std::uint64_t seed, double burst_rps,
                                                  std::int64_t pool) {
  vf::serve::StreamShape shape;
  shape.stream_fraction = 0.5;
  std::vector<vf::serve::TracePhase> phases;
  for (int c = 0; c < kCycles; ++c) {
    phases.push_back({kSteadyRps, kSteadyS});
    phases.push_back({burst_rps, kBurstS});
  }
  phases.push_back({kSteadyRps, kSteadyS});
  return vf::serve::streaming_trace(seed, phases, pool, shape);
}

vf::fault::FaultPlan chaos_plan(std::uint64_t seed) {
  vf::fault::ChaosConfig cfg;
  cfg.start_s = kSteadyS;
  cfg.duration_s = kCycles * (kSteadyS + kBurstS) - kSteadyS;
  cfg.kills = 2 * kCycles;
  cfg.recover_delay_s = 0.6;
  cfg.stragglers = 2 * kCycles;
  cfg.straggler_duration_s = 0.5;
  cfg.comm_faults = kCycles;
  cfg.max_device = kStartDevices - 1;
  return vf::fault::FaultPlan::chaos(seed ^ 0xFA017ULL, cfg);
}

vf::serve::ServerConfig server_config() {
  vf::serve::ServerConfig cfg;
  cfg.queue_capacity = 1 << 16;  // admission never bounces: no request fails
  cfg.batch = {64, 0.005};
  cfg.deadline_s = kDeadlineS;
  cfg.continuous = true;
  cfg.stream.disaggregate = true;
  cfg.elastic.enabled = true;
  cfg.elastic.high_watermark = 18;
  cfg.elastic.low_watermark = 6;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = kVns;
  cfg.elastic.cooldown_batches = 1;
  return cfg;
}

/// Everything one replay owns, built in the set-up phase.
struct ServeRig {
  vf::ProxyTask task;
  vf::TrainRecipe recipe;
  vf::Sequential model;
  std::unique_ptr<TracedDataset> traced_pool;
  const vf::Dataset* pool;
  vf::VirtualFlowEngine engine;
  vf::serve::Server server;
  vf::fault::FaultInjector injector;
  std::vector<vf::serve::InferRequest> trace;

  ServeRig(std::uint64_t seed, double burst_rps, bool traced)
      : task(vf::make_task("mrpc-sim", seed)),
        recipe(vf::make_recipe("mrpc-sim")),
        model(traced ? traced_model(vf::make_proxy_model("mrpc-sim", seed))
                     : vf::make_proxy_model("mrpc-sim", seed)),
        traced_pool(traced ? std::make_unique<TracedDataset>(*task.val, "data.example_into")
                           : nullptr),
        pool(traced ? traced_pool.get() : task.val.get()),
        engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
               vf::model_profile("bert-base"),
               vf::make_devices(vf::DeviceType::kV100, kStartDevices),
               vf::VnMapping::even(kVns, kStartDevices, recipe.global_batch), engine_config(seed)),
        server(engine, *pool, server_config()),
        injector(chaos_plan(seed)),
        trace(stream_trace(seed, burst_rps, pool->size())) {
    server.set_fault_injector(&injector);
    server.begin(trace);
  }

  static vf::EngineConfig engine_config(std::uint64_t seed) {
    vf::EngineConfig cfg;
    cfg.seed = seed;
    cfg.enforce_memory = false;
    cfg.num_threads = kWorkers;
    return cfg;
  }

  /// Pumps fixed virtual-time windows until the replay drains; returns
  /// the host time of each window.
  std::vector<double> drive() {
    const std::int32_t span = Tracer::get().intern("serve.pump");
    std::vector<double> ms;
    for (std::int64_t k = 1; !server.drained(); ++k) {
      const std::int64_t a = now_ns();
      {
        Scope scope(span);
        server.pump(static_cast<double>(k) * kWindowS);
      }
      ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
    }
    server.finish();
    return ms;
  }
};

struct Outcome {
  std::int64_t served = 0, failed = 0, met = 0;
  std::vector<double> ttft_ms, itl_ms;
  std::vector<std::string> errors;
};

/// Zero loss (every arrival leaves exactly once), complete streams, and
/// the SLO read-outs, over the records of one drained replay.
Outcome check_records(const std::vector<vf::serve::RequestRecord>& records,
                      const std::vector<vf::serve::InferRequest>& trace) {
  Outcome out;
  std::set<std::int64_t> ids;
  std::vector<std::int64_t> requested(trace.size(), 0);
  for (const vf::serve::InferRequest& r : trace)
    requested[static_cast<std::size_t>(r.id)] = r.stream_tokens;
  for (const vf::serve::RequestRecord& r : records) {
    ids.insert(r.id);
    if (r.rejected) {
      ++out.failed;
      continue;
    }
    ++out.served;
    if (r.deadline_met) ++out.met;
    if (!r.streamed()) continue;
    out.ttft_ms.push_back(r.ttft_s() * 1e3);
    if (static_cast<std::int64_t>(r.tokens.size()) != requested[static_cast<std::size_t>(r.id)])
      out.errors.push_back("stream " + std::to_string(r.id) + " lost tokens");
    for (std::size_t i = 1; i < r.token_stamps.size(); ++i) {
      const double gap = r.token_stamps[i] - r.token_stamps[i - 1];
      if (gap <= 0.0) out.errors.push_back("stream " + std::to_string(r.id) + " stamps not increasing");
      out.itl_ms.push_back(gap * 1e3);
    }
  }
  if (ids.size() != records.size() || ids.size() != trace.size())
    out.errors.push_back("arrivals not accounted exactly once: " + std::to_string(trace.size()) +
                         " arrivals, " + std::to_string(records.size()) + " records, " +
                         std::to_string(ids.size()) + " distinct");
  return out;
}

}  // namespace

Rep run_serve_stream_elastic(const RepOptions& o) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  ServeRig rig(o.seed, kBurstRps, o.traced);
  rep.setup_s = secs(t0, now_ns());
  if (o.setup_only) return rep;

  const std::int64_t heap0 = heap_allocs();
  rep.phase_start_ns = now_ns();
  rep.op_ms = rig.drive();
  rep.phase_end_ns = now_ns();
  const auto heap = static_cast<double>(heap_allocs() - heap0);
  rep.time_to_result_s = secs(rep.phase_start_ns, rep.phase_end_ns);

  const auto& records = rig.server.slo().records();
  Outcome out = check_records(records, rig.trace);
  rep.errors = out.errors;
  const auto arrivals = static_cast<double>(rig.trace.size());
  rep.work = static_cast<double>(out.served);
  rep.attempted = static_cast<std::int64_t>(rig.trace.size());
  rep.failed = out.failed;

  const vf::serve::SloSummary sum = rig.server.slo().summary();
  const auto& slices = rig.server.batches();
  double rows = 0.0;
  for (const vf::serve::BatchEvent& b : slices) rows += static_cast<double>(b.size);
  double migration = 0.0;
  for (const vf::serve::ResizeEvent& e : rig.server.resizes()) migration += e.migration_s;
  double kills = 0.0, evicted = 0.0, requeued = 0.0;
  for (const vf::serve::FaultRecord& f : rig.server.faults()) {
    if (f.kind == vf::fault::FaultKind::kKill && !f.skipped) kills += 1.0;
    evicted += static_cast<double>(f.evicted_slices);
    requeued += static_cast<double>(f.requeued_requests);
  }

  // Device-seconds held: the device count is piecewise constant between
  // resizes (set to the new size) and honoured kills (one fewer).
  std::vector<std::pair<double, std::int64_t>> changes;  // (time, new count or -1 for a kill)
  for (const vf::serve::ResizeEvent& e : rig.server.resizes()) changes.push_back({e.time_s, e.to_devices});
  for (const vf::serve::FaultRecord& f : rig.server.faults())
    if (f.kind == vf::fault::FaultKind::kKill && !f.skipped) changes.push_back({f.time_s, -1});
  std::stable_sort(changes.begin(), changes.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  double device_s = 0.0, t = 0.0;
  std::int64_t count = kStartDevices;
  for (const auto& [at, to] : changes) {
    device_s += static_cast<double>(count) * (at - t);
    t = at;
    count = to < 0 ? count - 1 : to;
  }
  device_s += static_cast<double>(count) * (rig.server.now_s() - t);

  rep.exact["quality_frac"] = static_cast<double>(out.met) / arrivals;
  rep.exact["fail_frac"] = static_cast<double>(out.failed) / arrivals;
  rep.exact["sim_time_to_result_s"] = rig.server.now_s();
  rep.exact["sim_tail_ms"] = sum.p99_ttft_s * 1e3;
  rep.exact["serve.itl_p99_ms"] = sum.p99_itl_s * 1e3;
  rep.exact["sim_device_s"] = device_s;
  rep.exact["serve.slices"] = static_cast<double>(slices.size());
  rep.exact["serve.rows_per_slice"] = slices.empty() ? 0.0 : rows / static_cast<double>(slices.size());
  rep.exact["serve.queue_wait_p99_ms"] = sum.p99_queue_wait_s * 1e3;
  rep.exact["serve.ttft_p50_ms"] = sum.p50_ttft_s * 1e3;
  rep.exact["serve.itl_p50_ms"] = percentile(out.itl_ms, 50.0);
  rep.exact["serve.resizes"] = static_cast<double>(rig.server.resizes().size());
  rep.exact["serve.migration_s"] = migration;
  rep.exact["fault.kills"] = kills;
  rep.exact["fault.evicted_slices"] = evicted;
  rep.exact["fault.requeued_requests"] = requeued;
  // Finished slices are useful; evicted ones were dispatched and lost.
  rep.exact["fault.useful_slice_frac"] =
      static_cast<double>(slices.size()) / (static_cast<double>(slices.size()) + evicted);
  rep.host["serve.heap_allocs_per_request"] = heap / arrivals;

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const vf::serve::RequestRecord& r : records) {
    for (const double v : {r.dispatch_s, r.queue_wait_s, r.finish_s, r.first_token_s})
      h = fnv(h, &v, sizeof v);
    h = fnv(h, &r.id, sizeof r.id);
    h = fnv(h, &r.prediction, sizeof r.prediction);
    h = fnv(h, r.tokens.data(), r.tokens.size() * sizeof(std::int64_t));
    h = fnv(h, r.token_stamps.data(), r.token_stamps.size() * sizeof(double));
  }
  rep.fingerprint = h;
  return rep;
}

void serve_ladder(std::uint64_t seed, std::map<std::string, double>& exact) {
  double capacity = 0.0;
  for (const double rps : kLadderRps) {
    ServeRig rig(seed, rps, /*traced=*/false);
    rig.drive();
    const Outcome out = check_records(rig.server.slo().records(), rig.trace);
    const vf::serve::SloSummary sum = rig.server.slo().summary();
    const std::string key = "serve.ladder." + std::to_string(static_cast<int>(rps));
    exact[key + ".ttft_p99_ms"] = sum.p99_ttft_s * 1e3;
    exact[key + ".itl_p99_ms"] = sum.p99_itl_s * 1e3;
    if (out.errors.empty() && out.failed == 0 && sum.p99_ttft_s * 1e3 <= kLadderTtftMs &&
        sum.p99_itl_s * 1e3 <= kLadderItlMs)
      capacity = rps;
  }
  exact["sim_capacity_per_s"] = capacity;
}

}  // namespace pb
