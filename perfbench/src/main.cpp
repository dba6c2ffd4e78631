// vfbench: runs one benchmark workload for a given time and prints its
// metrics, the correctness verdict and provenance as one JSON line.
//
//   vfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans <file>]     traced run: write every span here
//   vfbench --workload <name> --seed <n> --setup-only
//           prints "setup_done_ns <steady clock>" after one set-up
//
// --trace 0 repeats untraced executions (set-up plus timed phase) until
// the time is up and reports the host-clock end-to-end metrics. --trace 1
// alternates an untraced and a traced execution and reports the per-layer
// metrics, the virtual-clock results and the tracing overhead. Every
// execution of one seed must give bit-identical virtual-clock results,
// and the traced one must match the untraced one.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "decorators.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "trace.h"
#include "virtualflow.h"
#include "workloads.h"

#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace {

using pb::Rep;

using Workload = std::function<Rep(const pb::RepOptions&)>;

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> w = {
      {"train-large-batch", pb::run_train_large_batch},
      {"train-small-batch-elastic", pb::run_train_small_batch_elastic},
      {"serve-stream-elastic", pb::run_serve_stream_elastic},
      {"cluster-cosched", pb::run_cluster_cosched},
  };
  return w;
}

/// Per-layer metrics reported by every traced run, with their units; a
/// layer a workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> per_layer_metrics() {
  std::vector<std::pair<std::string, std::string>> m = {
      {"quality_frac", "fraction"},
      {"fail_frac", "fraction"},
      {"sim_time_to_result_s", "s"},
      {"sim_tail_ms", "ms"},
      {"sim_capacity_per_s", "1/s"},
      {"sim_device_s", "device-s"},
      {"core.train_step.p50_ms", "ms"},
      {"core.train_step.tail_ms", "ms"},
      {"core.train_step.self_ms", "ms"},
      {"core.evaluate.ms", "ms"},
      {"core.reconfigure.ms", "ms"},
      {"core.train_step.heap_allocs", "count"},
      {"core.train_step.tensor_allocs", "count"},
      {"core.steps_to_target", "count"},
      {"data.example_into.calls", "count"},
      {"data.example_into.ms_per_step", "ms"},
      {"nn.dense.fwd_ms", "ms"},
      {"nn.dense.bwd_ms", "ms"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"tensor.gemm_flops_per_step", "flop"},
      {"nn.relu.fwd_ms", "ms"},
      {"nn.relu.bwd_ms", "ms"},
      {"nn.batchnorm.fwd_ms", "ms"},
      {"nn.batchnorm.bwd_ms", "ms"},
      {"nn.dropout.fwd_ms", "ms"},
      {"nn.dropout.bwd_ms", "ms"},
      {"nn.optimizer.apply_ms", "ms"},
      {"nn.eval_fwd_ms_per_request", "ms"},
      {"solver.solve_ms", "ms"},
      {"comm.allreduce_ms_per_step", "ms"},
      {"comm.allreduce_bytes_per_step", "B"},
      {"serve.pump.p50_ms", "ms"},
      {"serve.pump.tail_ms", "ms"},
      {"serve.pump.self_ms", "ms"},
      {"serve.heap_allocs_per_request", "count"},
      {"serve.slices", "count"},
      {"serve.rows_per_slice", "count"},
      {"serve.queue_wait_p99_ms", "ms"},
      {"serve.ttft_p50_ms", "ms"},
      {"serve.itl_p50_ms", "ms"},
      {"serve.itl_p99_ms", "ms"},
      {"serve.resizes", "count"},
      {"serve.migration_s", "s"},
  };
  for (const double rps : pb::kLadderRps) {
    const std::string key = "serve.ladder." + std::to_string(static_cast<int>(rps));
    m.push_back({key + ".ttft_p99_ms", "ms"});
    m.push_back({key + ".itl_p99_ms", "ms"});
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"fault.kills", "count"},
      {"fault.evicted_slices", "count"},
      {"fault.requeued_requests", "count"},
      {"fault.useful_slice_frac", "fraction"},
      {"sched.policy.calls", "count"},
      {"sched.policy.ms_per_call", "ms"},
      {"sched.policy.total_ms", "ms"},
      {"sched.lease.pump_ms", "ms"},
      {"sched.controller.self_ms", "ms"},
      {"sched.event.p50_ms", "ms"},
      {"sched.event.tail_ms", "ms"},
      {"sched.grants", "count"},
      {"sched.resize_penalty_s", "s"},
      {"sched.train_wait_s", "s"},
      {"sched.useful_device_frac", "fraction"},
      {"sched.heap_allocs_per_event", "count"},
      {"obs.trace_overhead_frac", "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

double median(std::vector<double> v) { return pb::percentile(std::move(v), 50.0); }

/// One execution; an exception from the library fails it (and the run)
/// instead of ending the process without a result.
Rep guarded(const Workload& w, const pb::RepOptions& o) {
  try {
    return w(o);
  } catch (const std::exception& e) {
    Rep r;
    r.attempted = 1;
    r.failed = 1;
    r.errors.push_back(std::string("library error: ") + e.what());
    return r;
  }
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";  // only after a failed execution
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--spans") {
      a.spans_path = value();
    } else if (k == "--setup-only") {
      a.setup_only = true;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (workloads().count(a.workload) == 0) throw std::runtime_error("unknown workload '" + a.workload + "'");
  if (!have_seed) throw std::runtime_error("--seed is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  return a;
}

double elapsed_s(std::int64_t since) { return static_cast<double>(pb::now_ns() - since) / 1e9; }

/// Exactness: same fingerprint and bit-identical virtual-clock results.
bool same_exact(const Rep& a, const Rep& b) {
  if (a.fingerprint != b.fingerprint || a.exact.size() != b.exact.size()) return false;
  for (const auto& [k, v] : a.exact) {
    const auto it = b.exact.find(k);
    if (it == b.exact.end() || std::memcmp(&v, &it->second, sizeof v) != 0) return false;
  }
  return true;
}

std::string provenance(const Args& a) {
  const vf::backend::Dispatch d =
      vf::backend::BackendFactory::instance().select(vf::backend::KernelOp::kMatmul, 1024, 32, 64);
  std::ostringstream o;
  o << "{\"build_type\": " << json_str(PB_BUILD_TYPE) << ", \"compiler\": " << json_str(__VERSION__)
    << ", \"kernel_mode\": " << json_str(vf::kernel_mode_name(vf::TensorConfig::kernel_mode()))
    << ", \"simd_isa\": " << json_str(vf::backend::BackendFactory::simd_isa())
    << ", \"simd_live\": " << (vf::backend::BackendFactory::instance().simd_available() ? "true" : "false")
    << ", \"gemm_1024x32x64_tier\": " << json_str(vf::kernel_mode_name(d.tier))
    << ", \"gemm_rule\": " << json_str(d.rule) << ", \"workers\": " << pb::kWorkers
    << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"seed\": " << a.seed << "}";
  return o.str();
}

/// Per-layer host figures of one traced execution, from its spans.
std::map<std::string, double> layer_figures(const Rep& t, const pb::Breakdown& b, const std::string& workload,
                                            std::int64_t gemm_flops) {
  std::map<std::string, const pb::LayerRow*> row;
  for (const pb::LayerRow& r : b.rows) row[r.name] = &r;
  const auto total = [&](const std::string& n) { return row.count(n) ? row[n]->total_ms : 0.0; };
  const auto self = [&](const std::string& n) { return row.count(n) ? row[n]->self_ms : 0.0; };
  const auto calls = [&](const std::string& n) {
    return row.count(n) ? static_cast<double>(row[n]->calls) : 0.0;
  };
  std::map<std::string, double> m;
  const double steps = calls("core.train_step");
  const double per_step = steps > 0 ? 1.0 / steps : 0.0;
  const double tail = pb::tail_level(t.op_ms.size());
  if (workload.rfind("train", 0) == 0) {
    m["core.train_step.p50_ms"] = pb::percentile(t.op_ms, 50.0);
    m["core.train_step.tail_ms"] = pb::percentile(t.op_ms, tail);
  }
  m["core.train_step.self_ms"] = self("core.train_step") * per_step;
  m["core.evaluate.ms"] = total("core.evaluate");
  m["core.reconfigure.ms"] = total("core.reconfigure");
  m["data.example_into.calls"] = calls("data.example_into");
  m["data.example_into.ms_per_step"] = total("data.example_into") * per_step;
  for (const char* layer : {"dense", "relu", "batchnorm", "dropout"}) {
    m[std::string("nn.") + layer + ".fwd_ms"] = total(std::string("nn.") + layer + ".fwd");
    m[std::string("nn.") + layer + ".bwd_ms"] = total(std::string("nn.") + layer + ".bwd");
  }
  const double dense_s = (total("nn.dense.fwd") + total("nn.dense.bwd")) / 1e3;
  m["tensor.gemm_gflops"] = dense_s > 0 ? static_cast<double>(gemm_flops) / dense_s / 1e9 : 0.0;
  m["tensor.gemm_flops_per_step"] = static_cast<double>(gemm_flops) * per_step;
  m["nn.optimizer.apply_ms"] = total("nn.optimizer.apply");
  double eval_ms = 0.0;
  for (const pb::LayerRow& r : b.rows)
    if (r.name.size() > 5 && r.name.compare(r.name.size() - 5, 5, ".eval") == 0) eval_ms += r.total_ms;
  const bool serving = workload == "serve-stream-elastic" || workload == "cluster-cosched";
  m["nn.eval_fwd_ms_per_request"] = serving && t.work > 0 ? eval_ms / t.work : 0.0;
  m["solver.solve_ms"] = total("solver.solve");
  if (workload == "serve-stream-elastic") {
    m["serve.pump.p50_ms"] = pb::percentile(t.op_ms, 50.0);
    m["serve.pump.tail_ms"] = pb::percentile(t.op_ms, tail);
  }
  m["serve.pump.self_ms"] = self("serve.pump");
  const double policy_calls = calls("sched.policy");
  m["sched.policy.total_ms"] = total("sched.policy");
  m["sched.policy.ms_per_call"] = policy_calls > 0 ? total("sched.policy") / policy_calls : 0.0;
  m["sched.lease.pump_ms"] = total("sched.lease.pump");
  m["sched.controller.self_ms"] = self("sched.controller.run");
  if (workload == "cluster-cosched") {
    m["sched.event.p50_ms"] = pb::percentile(t.op_ms, 50.0);
    m["sched.event.tail_ms"] = pb::percentile(t.op_ms, tail);
  }
  return m;
}

void write_spans(const std::string& path, const std::vector<pb::Span>& spans,
                 std::int64_t origin) {
  std::ofstream f(path);
  f << "# name\tthread\tstart_us\tend_us\tid\tparent\tgroup (times from the timed phase start)\n";
  pb::Tracer& tr = pb::Tracer::get();
  for (const pb::Span& s : spans)
    f << tr.name(s.name) << '\t' << s.thread << '\t' << (s.start - origin) / 1e3 << '\t'
      << (s.end - origin) / 1e3 << '\t' << s.id << '\t' << s.parent << '\t' << s.group << '\n';
}

void print_table(const pb::Breakdown& b) {
  std::printf("\n  per-layer split of the traced timed phase (%.1f ms, %d pool threads)\n",
              b.phase_ms, b.worker_threads);
  std::printf("  %-28s %10s %12s %12s %12s %7s\n", "span", "calls", "total ms", "self ms",
              "wall ms", "wall %");
  for (const pb::LayerRow& r : b.rows)
    std::printf("  %-28s %10lld %12.3f %12.3f %12.3f %6.2f%%\n", r.name.c_str(),
                static_cast<long long>(r.calls), r.total_ms, r.self_ms, r.wall_ms,
                100.0 * r.wall_ms / b.phase_ms);
  std::printf("  %-28s %10s %12s %12s %12.3f %6.2f%%\n", "(outside any span)", "", "", "",
              b.outside_ms, 100.0 * b.outside_ms / b.phase_ms);
}

int run(const Args& a) {
  const Workload& w = workloads().at(a.workload);
  pb::RepOptions opts;
  opts.seed = a.seed;
  if (a.setup_only) {
    opts.setup_only = true;
    const Rep r = guarded(w, opts);
    std::printf("setup_done_ns %lld\n", static_cast<long long>(pb::now_ns()));
    return r.errors.empty() ? 0 : 1;
  }

  const std::int64_t start = pb::now_ns();
  std::vector<Rep> untraced, traced;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<double> overhead;
  std::int64_t attempted = 0, failed = 0;
  const auto absorb = [&](Rep r, std::vector<Rep>& into) -> Rep& {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(e);
    return into.emplace_back(std::move(r));
  };

  pb::Tracer& tracer = pb::Tracer::get();
  std::vector<pb::Span> last_spans;
  std::int64_t last_origin = 0;
  pb::Breakdown last_breakdown;
  double peak_rss_mb = 0.0;  // after the first execution: the memory one run needs
  if (!a.trace) {
    while (untraced.size() < 3 || elapsed_s(start) < a.seconds) {
      opts.traced = false;
      absorb(guarded(w, opts), untraced);
      if (untraced.size() == 1) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
      }
      if (!errors.empty() || elapsed_s(start) > 120.0) break;
    }
  } else {
    while (traced.empty() || elapsed_s(start) < a.seconds) {
      opts.traced = false;
      const Rep& u = absorb(guarded(w, opts), untraced);
      tracer.clear();
      tracer.enable();
      const std::int64_t flops0 = pb::g_gemm_flops.load();
      opts.traced = true;
      Rep t = guarded(w, opts);
      tracer.disable();
      const std::int64_t flops = pb::g_gemm_flops.load() - flops0;
      std::vector<pb::Span> spans = tracer.collect();
      const pb::Breakdown b =
          pb::breakdown(spans, tracer.names(), t.phase_start_ns, t.phase_end_ns);
      if (b.min_wall_ms < 0.0) errors.push_back("negative remainder in the per-layer split");
      if (b.sum_gap_ms > 1e-6 * b.phase_ms + 1e-6)
        errors.push_back("per-layer split does not add up to the timed phase");
      if (!same_exact(u, t)) errors.push_back("traced run differs from the untraced run");
      for (const auto& [k, v] : layer_figures(t, b, a.workload, flops)) layer_samples[k].push_back(v);
      overhead.push_back(t.time_to_result_s / u.time_to_result_s - 1.0);
      last_spans = std::move(spans);
      last_origin = t.phase_start_ns;
      last_breakdown = b;
      absorb(std::move(t), traced);
      if (!errors.empty() || elapsed_s(start) > 100.0) break;
    }
  }
  for (std::size_t i = 1; i < untraced.size(); ++i)
    if (!same_exact(untraced[0], untraced[i])) {
      errors.push_back("virtual-clock results differ between repetitions");
      break;
    }

  std::map<std::string, std::pair<double, std::string>> metrics;
  std::ostringstream info;
  const Rep& ref = untraced.front();
  if (!a.trace) {
    std::vector<double> setup, ttr, rate, p50, tail;
    for (const Rep& r : untraced) {
      setup.push_back(r.setup_s);
      ttr.push_back(r.time_to_result_s);
      rate.push_back(r.work / r.time_to_result_s);
      p50.push_back(pb::percentile(r.op_ms, 50.0));
      tail.push_back(pb::percentile(r.op_ms, pb::tail_level(r.op_ms.size())));
    }
    metrics["setup_s"] = {median(setup), "s"};
    metrics["time_to_result_s"] = {median(ttr), "s"};
    metrics["host_rate_per_s"] = {median(rate), "1/s"};
    metrics["host_p50_ms"] = {median(p50), "ms"};
    metrics["host_tail_ms"] = {median(tail), "ms"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MiB"};
    info << "\"repetitions\": " << untraced.size() << ", \"ops_per_repetition\": "
         << ref.op_ms.size() << ", \"tail_percentile\": " << pb::tail_level(ref.op_ms.size());
  } else {
    std::map<std::string, double> exact = ref.exact;
    if (a.workload == "serve-stream-elastic") {
      try {
        pb::serve_ladder(a.seed, exact);
      } catch (const std::exception& e) {
        errors.push_back(std::string("library error in the capacity ladder: ") + e.what());
      }
    }
    for (const auto& [k, v] : ref.host) layer_samples[k].push_back(v);
    layer_samples["obs.trace_overhead_frac"] = overhead;
    for (const auto& [name, unit] : per_layer_metrics()) {
      double v = 0.0;
      if (exact.count(name)) {
        v = exact.at(name);
      } else if (layer_samples.count(name)) {
        v = median(layer_samples.at(name));
      }
      metrics[name] = {v, unit};
    }
    info << "\"traced_pairs\": " << traced.size() << ", \"ops_per_repetition\": "
         << ref.op_ms.size() << ", \"tail_percentile\": " << pb::tail_level(ref.op_ms.size());
    print_table(last_breakdown);
    if (!a.spans_path.empty()) write_spans(a.spans_path, last_spans, last_origin);
  }

  std::printf("\n  %s seed %llu (%s run)\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? "traced" : "untraced");
  if (!a.trace) {
    for (const auto& [k, v] : ref.exact)
      std::printf("  %-34s %.6g\n", k.c_str(), v);
  }
  for (const std::string& e : errors) std::printf("  CHECK FAILED: %s\n", e.c_str());

  std::ostringstream out;
  out << "{\"correct\": " << (errors.empty() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : metrics) {
    out << (first ? "" : ", ") << json_str(k) << ": {\"value\": " << json_num(v.first)
        << ", \"unit\": " << json_str(v.second) << "}";
    first = false;
  }
  out << "}, \"provenance\": " << provenance(a) << ", \"info\": {" << info.str()
      << "}, \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) out << (i ? ", " : "") << json_str(errors[i]);
  out << "]}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vfbench: %s\n", e.what());
    return 2;
  }
}
