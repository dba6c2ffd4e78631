// Pinned record streams of the single-model Server on configurations with
// no mid-flight migration (batch-boundary fixed and elastic, continuous
// fixed, FIFO and disaggregated token streams on a fixed device set).
// Each replay's request records, work units and resize events are folded
// into one FNV-1a fingerprint; the constants below were recorded from the
// Server before it became a front over ColocatedServer, so any drift in
// the shared serving loop on these paths fails here bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "serve/arrival.h"
#include "serve/server.h"
#include "workloads/profiles.h"
#include "workloads/tasks.h"

namespace vf::serve {
namespace {

constexpr std::uint64_t kSeed = 42;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) { add(static_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const Server& server) {
  Fnv f;
  for (const RequestRecord& r : server.slo().records()) {
    f.add(r.id);
    f.add(r.arrival_s);
    f.add(r.dispatch_s);
    f.add(r.queue_wait_s);
    f.add(r.compute_s);
    f.add(r.comm_s);
    f.add(r.finish_s);
    f.add(r.prediction);
    f.add(r.rejected);
    f.add(r.deadline_met);
    f.add(r.retries);
    f.add(r.first_token_s);
    for (const std::int64_t t : r.tokens) f.add(t);
    for (const double s : r.token_stamps) f.add(s);
  }
  for (const BatchEvent& b : server.batches()) {
    f.add(b.start_s);
    f.add(b.finish_s);
    f.add(b.size);
    f.add(b.devices);
    f.add(b.queue_depth_after);
    f.add(static_cast<std::int64_t>(b.vn));
    f.add(static_cast<std::int64_t>(b.model));
    f.add(static_cast<std::int64_t>(b.kind));
    f.add(b.device);
    f.add(b.warm);
  }
  for (const ResizeEvent& e : server.resizes()) {
    f.add(e.time_s);
    f.add(e.from_devices);
    f.add(e.to_devices);
    f.add(e.queue_depth);
    f.add(e.migration_s);
  }
  f.add(server.now_s());
  return f.value();
}

struct Case {
  bool continuous = false;
  bool elastic = false;
  bool stream = false;
  bool disaggregate = false;
  bool shed = false;
  std::int64_t queue_capacity = 512;
  std::int64_t devices = 1;
  bool observe = false;
};

struct Result {
  std::uint64_t records = 0;
  std::uint64_t trace = 0;
};

Result run(const Case& c) {
  ProxyTask task = make_task("mrpc-sim", kSeed);
  Sequential model = make_proxy_model("mrpc-sim", kSeed);
  TrainRecipe recipe = make_recipe("mrpc-sim");
  EngineConfig ecfg;
  ecfg.seed = kSeed;
  ecfg.enforce_memory = false;
  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile("bert-base"),
                           make_devices(DeviceType::kV100, c.devices),
                           VnMapping::even(8, c.devices, recipe.global_batch), ecfg);

  ServerConfig cfg;
  cfg.queue_capacity = c.queue_capacity;
  cfg.batch = {/*max_batch=*/64, /*max_wait_s=*/0.01};
  cfg.deadline_s = c.shed ? 0.1 : 0.5;
  cfg.shed_expired = c.shed;
  cfg.continuous = c.continuous;
  cfg.stream.disaggregate = c.disaggregate;
  cfg.elastic.enabled = c.elastic;
  cfg.elastic.high_watermark = 48;
  cfg.elastic.low_watermark = 4;
  cfg.elastic.min_devices = 1;
  cfg.elastic.max_devices = 8;
  cfg.elastic.cooldown_batches = 1;
  Server server(engine, *task.val, cfg);
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  if (c.observe) server.set_observability({&trace, &metrics});

  if (c.stream) {
    StreamShape shape;
    shape.stream_fraction = 0.7;
    shape.prompt_min = 8;
    shape.prompt_max = 32;
    shape.tokens_min = 4;
    shape.tokens_max = 12;
    server.replay(streaming_trace(kSeed, {{40.0, 0.5}, {150.0, 1.0}, {30.0, 1.0}},
                                  task.val->size(), shape));
  } else {
    server.replay(phased_poisson_trace(kSeed, {{300.0, 0.5}, {4000.0, 1.0}, {150.0, 2.0}},
                                       task.val->size()));
  }
  Result out;
  out.records = fingerprint(server);
  if (c.observe) {
    Fnv f;
    f.add(trace.to_json());
    out.trace = f.value();
  }
  return out;
}

TEST(ServerFingerprint, BatchBoundaryFixed) {
  EXPECT_EQ(run({}).records, 0x7e3aaa7788ede38fULL);
}

TEST(ServerFingerprint, BatchBoundaryElastic) {
  Case c;
  c.elastic = true;
  EXPECT_EQ(run(c).records, 0xd4c1577ce08a226aULL);
}

TEST(ServerFingerprint, BatchBoundaryShedTinyQueue) {
  Case c;
  c.shed = true;
  c.queue_capacity = 64;
  EXPECT_EQ(run(c).records, 0xa29770abe4cd313cULL);
}

TEST(ServerFingerprint, ContinuousFixed) {
  Case c;
  c.continuous = true;
  c.devices = 2;
  EXPECT_EQ(run(c).records, 0x9e97f51b4e79c217ULL);
}

TEST(ServerFingerprint, ContinuousFixedShedTinyQueue) {
  Case c;
  c.continuous = true;
  c.shed = true;
  c.queue_capacity = 64;
  EXPECT_EQ(run(c).records, 0x8ba0569daeda3163ULL);
}

TEST(ServerFingerprint, StreamFifoFixed) {
  Case c;
  c.continuous = true;
  c.stream = true;
  c.devices = 2;
  EXPECT_EQ(run(c).records, 0x1df5f28b8e02c4faULL);
}

TEST(ServerFingerprint, StreamDisaggregatedFixed) {
  Case c;
  c.continuous = true;
  c.stream = true;
  c.disaggregate = true;
  EXPECT_EQ(run(c).records, 0xd0b5e8b6951271baULL);
}

TEST(ServerFingerprint, StreamDisaggregatedFixedObservedTrace) {
  // Same replay with sinks attached: the exported trace (spans stamped
  // with the single-model id -1, reject/preempt markers) is pinned too.
  Case c;
  c.continuous = true;
  c.stream = true;
  c.disaggregate = true;
  c.devices = 2;
  c.observe = true;
  const Result r = run(c);
  EXPECT_EQ(r.records, 0x5669b0fcfa0d52a7ULL);
  EXPECT_EQ(r.trace, 0x93291d4fc8cf107fULL);
}

}  // namespace
}  // namespace vf::serve
