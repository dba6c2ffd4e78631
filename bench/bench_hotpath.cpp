// Hot-path harness: the kernel tiers and the zero-allocation workspace
// A/B, gating the wins this repo claims for its innermost loops.
//
//   1. Per-kernel throughput: GFLOP/s of matmul / matmul_transpose_lhs /
//      matmul_transpose_rhs on the workload-profile shapes the proxy
//      models actually run (per-VN batch x feature dims), three-way:
//      reference vs blocked vs simd — with a bit-identity check on every
//      shape (no tier may change one bit) and the backend factory's
//      per-shape dispatch decision printed per row ("vector" = the AVX2
//      kernel served; "isa"/"narrow-n" = a fallback did — see
//      tensor/backend.h for the rule names). On large shapes
//      (>= 8 MFLOP) the simd tier must beat blocked by
//      --min-simd-speedup (default 1.5x, smoke 1.2x) whenever the
//      vector ISA is live; hosts without AVX2 skip the gate and report
//      the fallback tier honestly.
//   2. End-to-end step time: the same training job in four arms —
//      "reference" arm: reference kernels + allocate-per-use workspaces
//      (VF_WORKSPACE_REUSE=0 semantics), i.e. the pre-optimization hot
//      path; "blocked" and "simd" arms: that tier + buffer reuse; and the
//      blocked arm with recording on. Each arm runs kRepeats times,
//      interleaved round-robin (the starting arm rotates each round), and
//      every timing gate compares medians: one run per arm cannot
//      resolve a 20% change on a host whose speed drifts between runs.
//      All runs must produce bit-identical parameters and losses, the
//      optimized arms' timed steps must perform ZERO tensor heap
//      allocations, and blocked-over-reference must clear --min-speedup
//      (default 1.5x full, 1.15x smoke). simd-over-reference is reported
//      and recorded; it is not gated end-to-end because the step budget
//      is dominated by the simulated device clock, not GEMM wall time.
//
// Exit 1 when any claim fails (speedups are informational under
// overridden workload knobs, like bench_serving's custom-load rule).
// --json=<path> emits the machine-readable perf trajectory records.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"

using namespace vf;
using vf::bench::Flags;
using vf::bench::JsonReport;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelCase {
  const char* op;  // "matmul", "tl", "tr"
  std::int64_t m, k, n;
};

/// Runs one kernel in one mode `reps` times; returns seconds per call.
double time_kernel(const KernelCase& c, KernelMode mode, const Tensor& a,
                   const Tensor& b, Tensor& out, std::int64_t reps) {
  const std::string op(c.op);
  const double t0 = now_s();
  for (std::int64_t r = 0; r < reps; ++r) {
    if (op == "matmul") {
      kernels::matmul(a.data().data(), b.data().data(), out.data().data(), c.m, c.k,
                      c.n, mode);
    } else if (op == "tl") {
      kernels::matmul_transpose_lhs(a.data().data(), b.data().data(),
                                    out.data().data(), c.m, c.k, c.n, mode);
    } else {
      kernels::matmul_transpose_rhs(a.data().data(), b.data().data(),
                                    out.data().data(), c.m, c.k, c.n, mode);
    }
  }
  return (now_s() - t0) / static_cast<double>(reps);
}

/// Runs of each end-to-end arm; the timing gates use their median.
constexpr int kRepeats = 5;

struct ArmResult {
  double step_s = 0.0;          // mean timed step wall-clock
  std::vector<double> losses;   // per-step loss trajectory
  Tensor params;                // final parameters
  std::int64_t tensor_allocs = 0;  // allocations during the timed steps
  std::int64_t ws_allocs = 0;      // workspace-audited allocations
};

ArmResult run_arm(const std::string& task, const std::string& profile,
                  std::int64_t vns, std::int64_t devices, std::uint64_t seed,
                  std::int64_t warmup, std::int64_t steps, KernelMode mode,
                  bool reuse, obs::Observability obs = {}) {
  TensorConfig::set_kernel_mode(mode);
  TensorConfig::set_workspace_reuse(reuse);
  bench::EngineSetup setup =
      bench::make_setup(task, profile, vns, devices, DeviceType::kV100, seed);
  setup.engine.set_observability(obs);
  ArmResult out;
  for (std::int64_t s = 0; s < warmup; ++s) out.losses.push_back(setup.engine.train_step().loss);
  const std::int64_t allocs0 = tensor_alloc_count();
  const std::int64_t ws0 = setup.engine.workspace_allocs();
  const double t0 = now_s();
  for (std::int64_t s = 0; s < steps; ++s) out.losses.push_back(setup.engine.train_step().loss);
  out.step_s = (now_s() - t0) / static_cast<double>(steps);
  out.tensor_allocs = tensor_alloc_count() - allocs0;
  out.ws_allocs = setup.engine.workspace_allocs() - ws0;
  out.params = setup.engine.parameters();
  return out;
}

/// One arm over kRepeats runs: the first run's result (trajectory and
/// parameters; every run must match it), the step times of all runs, and
/// the largest allocation counts any run saw.
struct ArmRuns {
  ArmResult first;
  std::vector<double> step_s;
  std::int64_t max_tensor_allocs = 0;
  std::int64_t max_ws_allocs = 0;
  bool repeatable = true;

  void add(ArmResult r) {
    max_tensor_allocs = std::max(max_tensor_allocs, r.tensor_allocs);
    max_ws_allocs = std::max(max_ws_allocs, r.ws_allocs);
    step_s.push_back(r.step_s);
    if (step_s.size() == 1) {
      first = std::move(r);
    } else {
      repeatable &= first.params.equals(r.params) && first.losses == r.losses;
    }
  }
  double median() const {
    std::vector<double> v = step_s;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  double min() const { return *std::min_element(step_s.begin(), step_s.end()); }
  /// (max - min) / median.
  double spread() const {
    return (*std::max_element(step_s.begin(), step_s.end()) - min()) / median();
  }
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv,
              {{"task", "proxy task for the end-to-end A/B (default imagenet-sim)"},
               {"profile", "paper model profile for the simulated clock (default resnet50)"},
               {"vns", "virtual nodes (default 8)"},
               {"devices", "devices; VNs fold onto them serially (default 1)"},
               {"steps", "timed steps per arm (default 30; smoke 8)"},
               {"warmup", "untimed warm-up steps per arm (default 5; smoke 2)"},
               {"min-speedup", "required end-to-end speedup, blocked+reuse vs "
                               "reference+alloc (default 1.5; smoke 1.15)"},
               {"min-simd-speedup", "required per-kernel simd-over-blocked speedup "
                                    "on >=8 MFLOP shapes when the vector ISA is "
                                    "live (default 1.5; smoke 1.2)"},
               {"seed", "experiment seed (default 42)"}});
  if (flags.help_requested()) {
    flags.print_help(
        "Hot-path kernels + zero-allocation workspaces: per-kernel GFLOP/s and the "
        "end-to-end train-step A/B gate");
    return 0;
  }

  const std::string task = flags.get_string("task", "imagenet-sim");
  const std::string profile = flags.get_string("profile", "resnet50");
  const std::int64_t vns = flags.get_int("vns", 8);
  const std::int64_t devices = flags.get_int("devices", 1);
  const std::int64_t steps = flags.get_int("steps", 30, /*smoke_def=*/8);
  const std::int64_t warmup = flags.get_int("warmup", 5, /*smoke_def=*/2);
  const double min_speedup = flags.get_double("min-speedup", 1.5, /*smoke_def=*/1.15);
  const double min_simd_speedup =
      flags.get_double("min-simd-speedup", 1.5, /*smoke_def=*/1.2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const KernelMode saved_mode = TensorConfig::kernel_mode();
  const bool saved_reuse = TensorConfig::workspace_reuse();
  JsonReport report("bench_hotpath");
  bool ok = true;

  print_banner(std::cout, "hot path — kernel tiers (reference/blocked/simd) + reusable workspaces");

  // Overridden workload knobs make the speedup claims informational (the
  // default configuration is what the acceptance numbers are calibrated
  // on); bit-identity and the zero-allocation contract hold regardless.
  bool custom = false;
  for (const char* knob : {"task", "profile", "vns", "devices", "seed"})
    custom |= flags.overridden(knob);

  backend::BackendFactory& factory = backend::BackendFactory::instance();
  std::printf("  simd backend: compiled=%s isa=%s cpu-avx2=%s -> %s\n",
              backend::BackendFactory::simd_compiled() ? "yes" : "no",
              backend::BackendFactory::simd_isa(),
              factory.cpu_features().avx2 ? "yes" : "no",
              factory.simd_available() ? "live" : "falling back to blocked");

  // ---- 1. Per-kernel GFLOP/s on the workload-profile shapes. The per-VN
  // batch rows come from the task's reference global batch folded onto the
  // default VN count; the feature dims are the proxy model's layers. A
  // larger square shape shows the cache-blocking effect beyond L1-resident
  // panels.
  {
    bench::EngineSetup probe =
        bench::make_setup(task, profile, vns, devices, DeviceType::kV100, seed);
    const std::int64_t rows = probe.recipe.global_batch / vns;
    const std::int64_t dim = probe.task.train->feature_dim();
    const std::int64_t hidden = 64;  // proxy-model width (workloads/tasks.cpp)
    const std::int64_t classes = probe.task.train->num_classes();
    const std::vector<KernelCase> cases = {
        {"matmul", rows, dim, hidden},     // layer-1 forward
        {"matmul", rows, hidden, hidden},  // layer-2 forward
        {"matmul", rows, hidden, classes}, // head forward
        {"tl", hidden, rows, hidden},      // layer-2 dW = x^T @ g
        {"tr", rows, hidden, hidden},      // layer-2 dx = g @ W^T
        {"tr", rows, classes, hidden},     // head dx
        {"matmul", 256, 256, 256},         // beyond-L1 square
    };

    std::printf("  per-kernel throughput (GFLOP/s), reference vs blocked vs simd:\n");
    Table table({"kernel", "m", "k", "n", "reference", "blocked", "simd",
                 "simd/blk", "tier", "bit-identical"});
    CounterRng rng(seed, /*stream=*/0xBE7C4);
    bool simd_gate_ok = true;
    for (const KernelCase& c : cases) {
      const std::string op(c.op);
      // Operand layouts per op (see kernels.h): tl takes a as [k x m].
      const Tensor a = op == "tl" ? Tensor::randn({c.k, c.m}, rng)
                                  : Tensor::randn({c.m, c.k}, rng);
      const Tensor b = op == "tr" ? Tensor::randn({c.n, c.k}, rng)
                                  : Tensor::randn({c.k, c.n}, rng);
      Tensor out_ref({c.m, c.n});
      Tensor out_blk({c.m, c.n});
      Tensor out_simd({c.m, c.n});
      const double flops = 2.0 * static_cast<double>(c.m) *
                           static_cast<double>(c.k) * static_cast<double>(c.n);
      const auto reps = std::max<std::int64_t>(
          1, static_cast<std::int64_t>((flags.smoke() ? 2e7 : 2e8) / flops));
      // Which tier actually serves VF_KERNELS=simd here, and under which
      // factory rule (tensor/backend.h).
      const backend::KernelOp bop =
          op == "matmul" ? backend::KernelOp::kMatmul
          : op == "tl"   ? backend::KernelOp::kMatmulTransposeLhs
                         : backend::KernelOp::kMatmulTransposeRhs;
      const backend::Dispatch dispatch = factory.select(bop, c.m, c.k, c.n);
      // Bit-identity first (also warms the caches).
      time_kernel(c, KernelMode::kReference, a, b, out_ref, 1);
      time_kernel(c, KernelMode::kBlocked, a, b, out_blk, 1);
      time_kernel(c, KernelMode::kSimd, a, b, out_simd, 1);
      const bool identical = out_ref.equals(out_blk) && out_ref.equals(out_simd);
      ok &= identical;
      const double ref_s = time_kernel(c, KernelMode::kReference, a, b, out_ref, reps);
      const double blk_s = time_kernel(c, KernelMode::kBlocked, a, b, out_blk, reps);
      const double simd_s = time_kernel(c, KernelMode::kSimd, a, b, out_simd, reps);
      const double ref_gf = flops / ref_s / 1e9;
      const double blk_gf = flops / blk_s / 1e9;
      const double simd_gf = flops / simd_s / 1e9;
      const double simd_speedup = simd_s > 0.0 ? blk_s / simd_s : 0.0;
      // The vector-width claim is gated only where it is claimed: shapes
      // big enough to amortize the panel fill (>= 8 MFLOP) that the
      // factory actually serves with the vector kernel.
      const bool gated = flops >= 8e6 && dispatch.tier == KernelMode::kSimd;
      if (gated && simd_speedup < min_simd_speedup) simd_gate_ok = false;
      const std::string shape = std::to_string(c.m) + "x" + std::to_string(c.k) +
                                "x" + std::to_string(c.n);
      table.row()
          .cell(std::string(c.op))
          .cell(c.m)
          .cell(c.k)
          .cell(c.n)
          .cell(ref_gf, 2)
          .cell(blk_gf, 2)
          .cell(simd_gf, 2)
          .cell(simd_speedup, 2)
          .cell(std::string(dispatch.rule) + (gated ? "*" : ""))
          .cell(std::string(identical ? "yes" : "NO — BUG"));
      report.add("kernel." + op + "." + shape + ".reference", ref_gf, "GFLOP/s");
      report.add("kernel." + op + "." + shape + ".blocked", blk_gf, "GFLOP/s");
      report.add("kernel." + op + "." + shape + ".simd", simd_gf, "GFLOP/s");
    }
    table.print(std::cout);
    std::printf("  (tier = backend-factory rule serving VF_KERNELS=simd for that "
                "shape; * = simd speedup gated)\n");
    if (factory.simd_available()) {
      std::printf("  simd-over-blocked on gated shapes >= %.2fx: %s\n",
                  min_simd_speedup,
                  simd_gate_ok ? "yes"
                               : (custom ? "no (informational: custom workload)"
                                         : "NO — BUG"));
      if (!custom && !simd_gate_ok) ok = false;
    } else {
      std::printf("  simd-over-blocked gate skipped: vector ISA not live on this "
                  "host (simd serves via blocked fallback)\n");
    }
  }

  // ---- 2. End-to-end train-step A/B, plus 3. the observability A/B on
  // the same blocked hot path: with a TraceRecorder + MetricsRegistry
  // attached, the step loop must stay at zero tensor heap allocations
  // (recording touches no tensors), the trajectory must not move a bit,
  // and the step time must stay within the stated budget of the
  // unobserved arm.
  std::printf("\n  end-to-end train step (%s on %s, %lld VNs on %lld device(s), "
              "%lld warmup + %lld timed, %d interleaved runs per arm):\n",
              task.c_str(), profile.c_str(), static_cast<long long>(vns),
              static_cast<long long>(devices), static_cast<long long>(warmup),
              static_cast<long long>(steps), kRepeats);
  enum Arm { kRef, kBlk, kSimdArm, kObs, kArms };
  ArmRuns arms[kArms];
  std::size_t obs_events = 0;
  for (int r = 0; r < kRepeats; ++r) {
    for (int i = 0; i < kArms; ++i) {
      const int arm = (r + i) % kArms;
      switch (arm) {
        case kRef:
          arms[arm].add(run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kReference, /*reuse=*/false));
          break;
        case kBlk:
          arms[arm].add(run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kBlocked, /*reuse=*/true));
          break;
        case kSimdArm:
          arms[arm].add(run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kSimd, /*reuse=*/true));
          break;
        default: {
          obs::TraceRecorder trace;
          obs::MetricsRegistry metrics;
          arms[arm].add(run_arm(task, profile, vns, devices, seed, warmup, steps,
                                KernelMode::kBlocked, /*reuse=*/true, {&trace, &metrics}));
          obs_events = trace.size();
        }
      }
    }
  }
  TensorConfig::set_kernel_mode(saved_mode);
  TensorConfig::set_workspace_reuse(saved_reuse);
  const ArmRuns& ref = arms[kRef];
  const ArmRuns& blk = arms[kBlk];
  const ArmRuns& simd = arms[kSimdArm];
  const ArmRuns& obs_on = arms[kObs];

  const double speedup = ref.median() / blk.median();
  const double simd_e2e = ref.median() / simd.median();
  Table e2e({"arm", "median step (ms)", "min (ms)", "spread", "speedup",
             "tensor allocs/step", "ws allocs"});
  const auto arm_row = [&](const char* name, const ArmRuns& a, double x) {
    e2e.row()
        .cell(std::string(name))
        .cell(a.median() * 1e3, 3)
        .cell(a.min() * 1e3, 3)
        .cell(a.spread(), 3)
        .cell(x, 2)
        .cell(static_cast<double>(a.max_tensor_allocs) / static_cast<double>(steps), 1)
        .cell(a.max_ws_allocs);
  };
  arm_row("reference + alloc-per-use", ref, 1.0);
  arm_row("blocked + workspace reuse", blk, speedup);
  arm_row("simd + workspace reuse", simd, simd_e2e);
  arm_row("blocked + recording on", obs_on, ref.median() / obs_on.median());
  e2e.print(std::cout);
  std::printf("  (spread = (max - min) / median over the %d runs; speedups are "
              "median over median)\n",
              kRepeats);

  const auto same_trajectory = [](const ArmRuns& a, const ArmRuns& b) {
    return a.first.params.equals(b.first.params) && a.first.losses == b.first.losses;
  };
  bool repeatable = true;
  for (const ArmRuns& a : arms) repeatable &= a.repeatable;
  const bool identical =
      repeatable && same_trajectory(ref, blk) && same_trajectory(ref, simd);

  const char* miss = custom ? "no (informational: custom workload)" : "NO — BUG";

  const bool zero_alloc = blk.max_tensor_allocs == 0 && blk.max_ws_allocs == 0 &&
                          simd.max_tensor_allocs == 0 && simd.max_ws_allocs == 0;
  const bool fast_enough = speedup >= min_speedup;

  // Observability gates: pure observer (bit-identical trajectory), zero
  // tensor allocations either way, and a 1.5x step-time budget — the
  // recorder's cost is a POD vector push per device per step (measured
  // ~0.8x-1.0x), so the headroom is all for wall noise on smoke-sized
  // steps under loaded CI hosts.
  const bool obs_identical = same_trajectory(blk, obs_on);
  const bool obs_zero_alloc = obs_on.max_tensor_allocs == 0 && obs_on.max_ws_allocs == 0;
  const double obs_ratio = obs_on.median() / blk.median();
  const bool obs_cheap = obs_ratio <= 1.5;

  std::printf("\n  trajectories bit-identical across all three kernel modes and all "
              "runs: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("  optimized arms steady-state tensor heap allocations: %lld + %lld "
              "(want 0)\n",
              static_cast<long long>(blk.max_tensor_allocs),
              static_cast<long long>(simd.max_tensor_allocs));
  std::printf("  end-to-end median speedup %.2fx blocked / %.2fx simd (gate on "
              "blocked: >= %.2fx): %s\n",
              speedup, simd_e2e, min_speedup, fast_enough ? "yes" : miss);
  std::printf("  recording on: %zu trace events, median step %.3f ms vs %.3f ms off "
              "(%.2fx, budget 1.5x): %s\n",
              obs_events, obs_on.median() * 1e3, blk.median() * 1e3, obs_ratio,
              obs_cheap ? "yes" : miss);
  std::printf("  recording does not perturb the trajectory, zero tensor allocs: %s\n",
              (obs_identical && obs_zero_alloc) ? "yes" : "NO — BUG");
  if (!identical || !zero_alloc) ok = false;
  if (!obs_identical || !obs_zero_alloc) ok = false;
  if (!custom && (!fast_enough || !obs_cheap)) ok = false;

  report.add("e2e.repeats", kRepeats, "runs");
  for (const auto& [name, a] : {std::pair<const char*, const ArmRuns*>{"reference", &ref},
                                {"blocked", &blk},
                                {"simd", &simd},
                                {"obs_on", &obs_on}}) {
    report.add(std::string("e2e.") + name + ".step_ms", a->median() * 1e3, "ms");
    report.add(std::string("e2e.") + name + ".step_ms_min", a->min() * 1e3, "ms");
    report.add(std::string("e2e.") + name + ".step_spread", a->spread(), "fraction");
  }
  report.add("e2e.speedup", speedup, "x");
  report.add("e2e.simd_speedup", simd_e2e, "x");
  report.add("e2e.blocked.tensor_allocs_per_step",
             static_cast<double>(blk.max_tensor_allocs) / static_cast<double>(steps),
             "allocs");
  report.add("e2e.obs_on.overhead_x", obs_ratio, "x");
  report.add("e2e.obs_on.trace_events", static_cast<double>(obs_events), "events");
  const std::string json = flags.json_path();
  if (!json.empty() && !report.save(json)) ok = false;

  return ok ? 0 : 1;
}
