// train-large-batch and train-small-batch-elastic: the library's reference
// recipes trained until validation accuracy first reaches the task target.
//
// Both train a fixed problem instance (task data and initial weights).
// The targets are calibrated for particular instances, and whether a given
// instance reaches its target within the recipe's epochs depends on the
// instance, so the benchmark seed must not pick it: a miss would be a
// failed run, and steps-to-target would swing by a factor of two between
// seeds. What the seed drives instead is the hardware schedule of the
// elastic workload (when it shrinks and grows), which VirtualFlow promises
// cannot change the trajectory.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "alloc_count.h"
#include "decorators.h"
#include "trace.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr std::uint64_t kLargeInstance = 42;  // the library's calibration seed
// qnli-sim's seed-42 instance peaks at 0.9004 under 8 VNs of 8 rows, short
// of its 0.909 target; instance 1 reaches it in epoch 8 (1312 steps).
constexpr std::uint64_t kSmallInstance = 1;
constexpr std::int64_t kSmallStepsToTarget = 1312;
constexpr std::int64_t kVns = 8;

double secs(std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e9; }

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Everything a training rep owns; decorated when tracing.
struct TrainRig {
  vf::ProxyTask task;
  vf::TrainRecipe recipe;
  vf::Sequential model;
  std::unique_ptr<vf::Optimizer> optimizer;
  std::unique_ptr<TracedDataset> traced_train, traced_val;
  const vf::Dataset* train = nullptr;
  const vf::Dataset* val = nullptr;

  TrainRig(const std::string& name, std::uint64_t instance, bool traced)
      : task(vf::make_task(name, instance)),
        recipe(vf::make_recipe(name)),
        model(vf::make_proxy_model(name, instance)),
        optimizer(std::move(recipe.optimizer)),
        train(task.train.get()),
        val(task.val.get()) {
    if (!traced) return;
    model = traced_model(model);
    optimizer = std::make_unique<TracedOptimizer>(std::move(optimizer));
    traced_train = std::make_unique<TracedDataset>(*task.train, "data.example_into");
    traced_val = std::make_unique<TracedDataset>(*task.val, "data.val_example_into");
    train = traced_train.get();
    val = traced_val.get();
  }
};

/// The timed phase shared by both training workloads: steps, per-epoch
/// validation and the scheduled reconfigurations (applied exactly as
/// vf::train applies ReconfigEvents), until the target is first reached.
void train_until_target(vf::VirtualFlowEngine& engine, const vf::Dataset& val, double target,
                        std::int64_t max_epochs, const std::vector<vf::ReconfigEvent>& events,
                        Rep& rep) {
  Tracer& tr = Tracer::get();
  const std::int32_t step_span = tr.intern("core.train_step");
  const std::int32_t eval_span = tr.intern("core.evaluate");
  const std::int32_t reconf_span = tr.intern("core.reconfigure");
  const auto grad_bytes = static_cast<double>(engine.parameters().size()) * sizeof(float);
  const auto batch = static_cast<double>(engine.mapping().global_batch());

  std::vector<double> sim_step_ms, heap, tensor;
  double device_s = 0.0, comm_ms = 0.0, allreduce_bytes = 0.0, examples = 0.0, acc = 0.0;
  std::size_t next = 0;
  bool reached = false, cold = true;
  rep.phase_start_ns = now_ns();
  for (std::int64_t epoch = 0; epoch < max_epochs && !reached; ++epoch) {
    for (std::int64_t s = 0; s < engine.steps_per_epoch(); ++s) {
      while (next < events.size() && events[next].at_step == engine.step()) {
        const vf::ReconfigEvent& ev = events[next++];
        Scope scope(reconf_span);
        const double before = engine.sim_time_s();
        if (ev.mapping.has_value()) {
          engine.reconfigure(ev.devices, *ev.mapping, ev.options);
        } else {
          engine.resize(ev.devices, ev.options);
        }
        device_s += (engine.sim_time_s() - before) * static_cast<double>(engine.devices().size());
        cold = true;
      }
      const std::int64_t heap0 = heap_allocs(), tensor0 = vf::tensor_alloc_count();
      const std::int64_t a = now_ns();
      vf::StepStats st;
      {
        Scope scope(step_span);
        st = engine.train_step();
      }
      rep.op_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
      // A warm step follows another step on the same mapping.
      if (!cold) {
        heap.push_back(static_cast<double>(heap_allocs() - heap0));
        tensor.push_back(static_cast<double>(vf::tensor_alloc_count() - tensor0));
      }
      cold = false;
      const auto devices = static_cast<double>(engine.devices().size());
      sim_step_ms.push_back(st.step_time_s * 1e3);
      device_s += st.step_time_s * devices;
      comm_ms += st.comm_time_s * 1e3;
      // Ring all-reduce of the flat gradient: 2 (D - 1) / D of its bytes per device.
      if (devices > 1) allreduce_bytes += 2.0 * (devices - 1.0) / devices * grad_bytes;
      examples += batch;
    }
    Scope scope(eval_span);
    acc = engine.evaluate(val);
    reached = acc >= target;
  }
  rep.phase_end_ns = now_ns();

  const auto steps = static_cast<double>(engine.step());
  rep.time_to_result_s = secs(rep.phase_start_ns, rep.phase_end_ns);
  rep.work = examples;
  rep.attempted = 1;
  rep.failed = reached ? 0 : 1;
  if (!reached)
    rep.errors.push_back("target accuracy " + std::to_string(target) + " not reached (best " +
                         std::to_string(acc) + ")");
  if (next != events.size())
    rep.errors.push_back("target reached before every reconfiguration fired");

  rep.exact["quality_frac"] = acc;
  rep.exact["fail_frac"] = reached ? 0.0 : 1.0;
  rep.exact["sim_time_to_result_s"] = engine.sim_time_s();
  rep.exact["sim_tail_ms"] = percentile(sim_step_ms, tail_level(sim_step_ms.size()));
  rep.exact["sim_capacity_per_s"] = examples / engine.sim_time_s();
  rep.exact["sim_device_s"] = device_s;
  rep.exact["core.steps_to_target"] = steps;
  rep.exact["comm.allreduce_ms_per_step"] = comm_ms / steps;
  rep.exact["comm.allreduce_bytes_per_step"] = allreduce_bytes / steps;
  rep.host["core.train_step.heap_allocs"] = median(heap);
  rep.host["core.train_step.tensor_allocs"] = median(tensor);

  const vf::Tensor params = engine.parameters();
  std::uint64_t h = fnv(0xcbf29ce484222325ULL, params.data().data(),
                        static_cast<std::size_t>(params.size()) * sizeof(float));
  h = fnv(h, &acc, sizeof acc);
  const double sim = engine.sim_time_s();
  rep.fingerprint = fnv(h, &sim, sizeof sim);
}

}  // namespace

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rep run_train_large_batch(const RepOptions& o) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  TrainRig rig("imagenet-sim", kLargeInstance, o.traced);
  vf::EngineConfig cfg;
  cfg.seed = kLargeInstance;
  cfg.enforce_memory = false;  // the proxy model; the resnet50 profile prices time
  cfg.num_threads = kWorkers;
  vf::VirtualFlowEngine engine(rig.model, *rig.optimizer, *rig.recipe.schedule, *rig.train,
                               vf::model_profile("resnet50"),
                               vf::make_devices(vf::DeviceType::kV100, 1),
                               vf::VnMapping::even(kVns, 1, rig.recipe.global_batch), cfg);
  rep.setup_s = secs(t0, now_ns());
  if (o.setup_only) return rep;
  train_until_target(engine, *rig.val, rig.task.target_accuracy, rig.recipe.epochs, {}, rep);
  return rep;
}

Rep run_train_small_batch_elastic(const RepOptions& o) {
  Rep rep;
  const std::int64_t t0 = now_ns();
  TrainRig rig("qnli-sim", kSmallInstance, o.traced);
  const std::int64_t batch = rig.recipe.global_batch;
  const std::int64_t vn_batch = batch / kVns;

  // The grown set: 3 V100 + 2 P100 on the solver's uneven split, cut into
  // the job's own 8-row virtual nodes so the trajectory is unchanged.
  const vf::ModelProfile& profile = vf::model_profile("bert-base");
  std::map<vf::DeviceType, vf::OfflineProfile> profiles;
  for (const vf::DeviceType t : {vf::DeviceType::kV100, vf::DeviceType::kP100})
    profiles.emplace(t, vf::profile_workload(t, profile));
  vf::HeterogeneousSolver solver(profile, std::move(profiles));
  std::optional<vf::SolverResult> best;
  {
    Scope scope(Tracer::get().intern("solver.solve"));
    best = solver.solve({{vf::DeviceType::kV100, 3}, {vf::DeviceType::kP100, 2}}, batch);
  }
  std::vector<std::vector<std::int64_t>> per_device;
  std::vector<std::pair<vf::DeviceType, std::int64_t>> groups;
  if (best.has_value()) {
    for (const vf::TypeAssignment& a : best->assignment) {
      groups.push_back({a.type, a.gpus});
      for (std::int64_t g = 0; g < a.gpus; ++g)
        per_device.emplace_back(static_cast<std::size_t>(a.per_gpu_batch / vn_batch), vn_batch);
    }
  }
  std::int64_t mixed_vns = 0;
  for (const auto& d : per_device) mixed_vns += static_cast<std::int64_t>(d.size());
  if (!best.has_value() || !best->heterogeneous || mixed_vns != kVns) {
    rep.errors.push_back("solver gave no heterogeneous split of the job's virtual nodes");
    return rep;
  }

  // Shrink 4 -> 2 V100 a third of the way to the target, grow to the
  // mixed set two thirds of the way; the seed moves each by up to a tenth
  // of that third.
  const std::int64_t third = kSmallStepsToTarget / 3;
  const auto jitter = [&](std::uint64_t salt) {
    return static_cast<std::int64_t>(splitmix(o.seed * 2 + salt) % (2 * (third / 10) + 1)) -
           third / 10;
  };
  std::vector<vf::ReconfigEvent> events(2);
  events[0].at_step = third + jitter(0);
  events[0].devices = vf::make_devices(vf::DeviceType::kV100, 2);
  events[1].at_step = 2 * third + jitter(1);
  events[1].devices = vf::make_heterogeneous(groups);
  events[1].mapping = vf::VnMapping::uneven(per_device);

  vf::EngineConfig cfg;
  cfg.seed = kSmallInstance;
  cfg.enforce_memory = false;
  cfg.num_threads = kWorkers;
  vf::VirtualFlowEngine engine(rig.model, *rig.optimizer, *rig.recipe.schedule, *rig.train,
                               profile, vf::make_devices(vf::DeviceType::kV100, 4),
                               vf::VnMapping::even(kVns, 4, batch), cfg);
  rep.setup_s = secs(t0, now_ns());
  if (o.setup_only) return rep;
  train_until_target(engine, *rig.val, rig.task.target_accuracy, rig.recipe.epochs, events, rep);
  rep.exact["train.shrink_step"] = static_cast<double>(events[0].at_step);
  rep.exact["train.grow_step"] = static_cast<double>(events[1].at_step);
  return rep;
}

}  // namespace pb
