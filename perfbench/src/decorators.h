// Decorators around the library's virtual interfaces. Each one forwards
// every call unchanged and opens a span around the calls that do work, so
// per-layer times are taken at public call boundaries, from outside the
// library. The engine copies layers and optimizers onto its replicas
// through clone(), and the clones keep their decorators.
//
// Nothing here may perturb a result: a decorated model has the same layer
// indices (set_layer_index forwards), hence the same batch-norm state keys
// and dropout streams, the same parameters in the same order, and the same
// optimizer slot sizes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace.h"
#include "virtualflow.h"

namespace pb {

/// FLOPs issued by decorated Dense layers in training passes.
inline std::atomic<std::int64_t> g_gemm_flops{0};

class TracedLayer final : public vf::Layer {
 public:
  explicit TracedLayer(std::unique_ptr<vf::Layer> inner) : inner_(std::move(inner)) {
    const std::string kind = inner_->name();
    const std::string base = "nn." + (kind == "batch_norm" ? std::string("batchnorm") : kind);
    Tracer& t = Tracer::get();
    fwd_ = t.intern(base + ".fwd");
    bwd_ = t.intern(base + ".bwd");
    eval_ = t.intern(base + ".eval");
    dense_ = kind == "dense";
    layer_index_ = inner_->layer_index();
  }
  TracedLayer(const TracedLayer& o)
      : Layer(o), inner_(o.inner_->clone()), fwd_(o.fwd_), bwd_(o.bwd_), eval_(o.eval_),
        dense_(o.dense_) {}
  TracedLayer& operator=(const TracedLayer&) = delete;

  void forward_into(const vf::Tensor& x, vf::Tensor& y, const vf::ExecContext& ctx) override {
    {
      Scope s(ctx.training ? fwd_ : eval_);
      inner_->forward_into(x, y, ctx);
    }
    if (dense_ && ctx.training) g_gemm_flops.fetch_add(2 * x.rows() * x.cols() * y.cols());
  }
  void backward_into(const vf::Tensor& grad_out, vf::Tensor& grad_in) override {
    {
      Scope s(bwd_);
      inner_->backward_into(grad_out, grad_in);
    }
    // Input gradient and weight gradient: two GEMMs of the forward's size.
    if (dense_) g_gemm_flops.fetch_add(4 * grad_out.rows() * grad_out.cols() * grad_in.cols());
  }
  std::vector<vf::Tensor*> params() override { return inner_->params(); }
  std::vector<const vf::Tensor*> params() const override {
    return static_cast<const vf::Layer&>(*inner_).params();
  }
  std::vector<vf::Tensor*> grads() override { return inner_->grads(); }
  std::unique_ptr<vf::Layer> clone() const override { return std::make_unique<TracedLayer>(*this); }
  std::string name() const override { return inner_->name(); }
  void set_layer_index(std::int32_t idx) override {
    layer_index_ = idx;
    inner_->set_layer_index(idx);
  }

 private:
  std::unique_ptr<vf::Layer> inner_;
  std::int32_t fwd_ = 0, bwd_ = 0, eval_ = 0;
  bool dense_ = false;
};

/// Copy of `model` with every top-level layer wrapped in a TracedLayer.
inline vf::Sequential traced_model(const vf::Sequential& model) {
  vf::Sequential copy = model;
  vf::Sequential out;
  for (std::size_t i = 0; i < copy.num_layers(); ++i)
    out.add(std::make_unique<TracedLayer>(copy.layer(i).clone()));
  return out;
}

class TracedDataset final : public vf::Dataset {
 public:
  TracedDataset(const vf::Dataset& inner, const std::string& span)
      : inner_(inner), span_(Tracer::get().intern(span)) {}

  std::int64_t size() const override { return inner_.size(); }
  std::int64_t feature_dim() const override { return inner_.feature_dim(); }
  std::int64_t num_classes() const override { return inner_.num_classes(); }
  std::string name() const override { return inner_.name(); }
  vf::Example example(std::int64_t i) const override {
    Scope s(span_);
    return inner_.example(i);
  }
  std::int64_t example_into(std::int64_t i, std::span<float> out) const override {
    Scope s(span_);
    return inner_.example_into(i, out);
  }

 private:
  const vf::Dataset& inner_;
  std::int32_t span_;
};

class TracedOptimizer final : public vf::Optimizer {
 public:
  explicit TracedOptimizer(std::unique_ptr<vf::Optimizer> inner)
      : inner_(std::move(inner)), span_(Tracer::get().intern("nn.optimizer.apply")) {}
  TracedOptimizer(const TracedOptimizer& o)
      : Optimizer(o), inner_(o.inner_->clone()), span_(o.span_) {}
  TracedOptimizer& operator=(const TracedOptimizer&) = delete;

  void apply(vf::Sequential& model, float lr) override {
    {
      Scope s(span_);
      inner_->apply(model, lr);
    }
    // slot_bytes() (migration pricing) reads the base-class slot vector
    // directly, so keep a copy with the inner optimizer's slot shapes.
    if (slots_.size() != inner_->slots().size()) slots_ = inner_->slots();
  }
  std::unique_ptr<vf::Optimizer> clone() const override {
    return std::make_unique<TracedOptimizer>(*this);
  }
  std::string name() const override { return inner_->name(); }
  std::vector<vf::Tensor>& slots() override { return inner_->slots(); }
  const std::vector<vf::Tensor>& slots() const override {
    return static_cast<const vf::Optimizer&>(*inner_).slots();
  }
  std::int64_t counter() const override { return inner_->counter(); }
  void set_counter(std::int64_t value) override { inner_->set_counter(value); }

 private:
  std::unique_ptr<vf::Optimizer> inner_;
  std::int32_t span_;
};

/// Scheduler decorator. Always records the host time of every policy
/// consultation (the controller-event clock of the cluster workload); opens
/// a span around it when tracing.
class PolicyProbe final : public vf::Scheduler {
 public:
  explicit PolicyProbe(vf::Scheduler& inner)
      : inner_(inner), span_(Tracer::get().intern("sched.policy")) {
    calls_ns_.reserve(1 << 18);
  }

  std::map<std::int64_t, vf::Allocation> schedule(const vf::ClusterInventory& cluster,
                                                  const std::vector<const vf::JobState*>& jobs,
                                                  double now) override {
    calls_ns_.push_back(now_ns());
    Scope s(span_);
    return inner_.schedule(cluster, jobs, now);
  }
  double round_interval_s() const override { return inner_.round_interval_s(); }
  double resize_penalty_s() const override { return inner_.resize_penalty_s(); }
  std::string name() const override { return inner_.name(); }

  const std::vector<std::int64_t>& calls_ns() const { return calls_ns_; }

 private:
  vf::Scheduler& inner_;
  std::int32_t span_;
  std::vector<std::int64_t> calls_ns_;
};

class TracedLease final : public vf::sched::DeviceLease {
 public:
  explicit TracedLease(vf::sched::DeviceLease& inner)
      : inner_(inner),
        pump_(Tracer::get().intern("sched.lease.pump")),
        grant_(Tracer::get().intern("sched.lease.grant")) {}

  double next_event_s() const override { return inner_.next_event_s(); }
  void pump(double horizon_s) override {
    Scope s(pump_);
    inner_.pump(horizon_s);
  }
  vf::sched::LoadSignal load() const override { return inner_.load(); }
  double apply_grant(std::int64_t devices) override {
    Scope s(grant_);
    return inner_.apply_grant(devices);
  }
  bool drained() const override { return inner_.drained(); }

 private:
  vf::sched::DeviceLease& inner_;
  std::int32_t pump_, grant_;
};

}  // namespace pb
