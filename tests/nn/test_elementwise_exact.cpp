// The elementwise layer loops are written so the compiler vectorizes them
// (branch-free selects, __restrict row kernels). That must not move a
// bit: each element keeps the operations and the order of the scalar
// loops it replaced. The scalar loops are copied here as the reference,
// and every output and gradient is compared byte for byte (memcmp, so
// NaN payloads and the sign of zero count) over widths on both sides of
// every vector width and over ±0, NaN, ±Inf and denormals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "util/rng.h"

namespace vf {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// The NaN the FPU generates itself (Inf - Inf). Inputs use it, so every
/// NaN in a computation has one bit pattern: when two NaNs with different
/// payloads meet, which one survives depends on the operand order the
/// compiler picked for a commutative op, which no source rewrite controls.
float default_nan() {
  volatile float inf = kInf;
  return inf - inf;
}
const float kNaN = default_nan();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
constexpr std::int64_t kRows = 5;

ExecContext make_ctx(bool training, VnState* state = nullptr) {
  ExecContext ctx;
  ctx.seed = 42;
  ctx.step = 7;
  ctx.vn_id = 3;
  ctx.training = training;
  ctx.state = state;
  return ctx;
}

/// Gaussian values; with `specials`, ±0, NaN, ±Inf and denormals are
/// spread over rows and columns.
Tensor make_input(std::int64_t n, std::int64_t d, std::uint64_t seed, bool specials) {
  CounterRng rng(seed, 0x5e);
  Tensor t = Tensor::randn({n, d}, rng);
  if (specials) {
    const float values[] = {0.0F, -0.0F, kNaN, kInf, -kInf, kDenorm, -kDenorm,
                            3e-40F, -1e-39F, std::numeric_limits<float>::min()};
    const std::span<float> v = t.data();
    for (std::size_t k = 0; k < std::size(values) && k < v.size(); ++k)
      v[(k * 7) % v.size()] = values[k];
  }
  return t;
}

void expect_bytes(std::span<const float> got, std::span<const float> want,
                  const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": element " << i << " is " << got[i] << ", the scalar loop gives "
                    << want[i];
      return;
    }
  }
}

class ElementwiseExact : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ElementwiseExact, ReluMatchesTheScalarLoops) {
  const std::int64_t d = GetParam();
  for (const bool specials : {false, true}) {
    const Tensor x = make_input(kRows, d, 1, specials);
    const Tensor g = make_input(kRows, d, 2, specials);
    Relu relu;
    Tensor y, gx;
    relu.forward_into(x, y, make_ctx(true));
    relu.backward_into(g, gx);

    std::vector<float> want_y(x.data().size()), want_gx(x.data().size());
    for (std::size_t i = 0; i < want_y.size(); ++i) {
      const float in = x.data()[i];
      want_y[i] = in < 0.0F ? 0.0F : in;
      want_gx[i] = in <= 0.0F ? 0.0F : g.data()[i];
    }
    expect_bytes(y.data(), want_y, "relu forward");
    expect_bytes(gx.data(), want_gx, "relu backward");
  }
}

TEST(ElementwiseExactEdges, ReluGradientAtZeroIsZeroAndNanPassesGradientThrough) {
  const Tensor x = Tensor::from_values({1, 4}, {0.0F, -0.0F, kNaN, 1.0F});
  const Tensor g = Tensor::from_values({1, 4}, {5.0F, 5.0F, 5.0F, 5.0F});
  Relu relu;
  Tensor y, gx;
  relu.forward_into(x, y, make_ctx(true));
  relu.backward_into(g, gx);
  const float zero = 0.0F;
  EXPECT_EQ(std::memcmp(&gx.data()[0], &zero, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&gx.data()[1], &zero, sizeof(float)), 0);
  EXPECT_EQ(gx.data()[2], 5.0F);
  EXPECT_EQ(gx.data()[3], 5.0F);
}

TEST_P(ElementwiseExact, DenseBiasMatchesTheScalarLoops) {
  const std::int64_t d = GetParam();
  for (const bool specials : {false, true}) {
    CounterRng rng(3, 0);
    Dense dense(6, d, rng);
    Tensor& w = *dense.params()[0];
    Tensor& b = *dense.params()[1];
    b = make_input(1, d, 4, specials);
    b.ensure_shape({d});
    // Inputs stay finite: the GEMM tiers agree only on finite data (see
    // tensor/kernels.h); the bias carries the special values.
    const Tensor x = make_input(kRows, 6, 5, false);
    const Tensor g = make_input(kRows, d, 6, specials);
    Tensor y, gx;
    dense.forward_into(x, y, make_ctx(true));
    dense.backward_into(g, gx);

    Tensor want_y = x.matmul(w);
    float* yp = want_y.data().data();
    for (std::int64_t i = 0; i < kRows; ++i, yp += d)
      for (std::int64_t j = 0; j < d; ++j) yp[j] += b.data()[static_cast<std::size_t>(j)];
    expect_bytes(y.data(), want_y.data(), "dense forward");
    expect_bytes(gx.data(), g.matmul_transpose_rhs(w).data(), "dense backward input");
    // Parameter gradients accumulate onto zeroed tensors.
    Tensor want_dw = Tensor::zeros({6, d});
    want_dw.add_(x.matmul_transpose_lhs(g));
    Tensor want_db = Tensor::zeros({d});
    want_db.add_(g.column_sums());
    expect_bytes(dense.grads()[0]->data(), want_dw.data(), "dense weight gradient");
    expect_bytes(dense.grads()[1]->data(), want_db.data(), "dense bias gradient");
  }
}

TEST_P(ElementwiseExact, DropoutMatchesTheScalarLoops) {
  const std::int64_t d = GetParam();
  for (const bool specials : {false, true}) {
    const Tensor x = make_input(kRows, d, 7, specials);
    const Tensor g = make_input(kRows, d, 8, specials);
    Dropout drop(0.3F);
    drop.set_layer_index(2);
    const ExecContext ctx = make_ctx(true);
    Tensor y, gx;
    drop.forward_into(x, y, ctx);
    drop.backward_into(g, gx);

    const std::uint64_t stream =
        derive_seed(2 + 1, (static_cast<std::uint64_t>(ctx.step) << 20) ^
                               static_cast<std::uint64_t>(ctx.vn_id));
    CounterRng rng(ctx.seed, stream);
    const float keep = 1.0F - 0.3F;
    std::vector<float> want_y(x.data().size()), want_gx(x.data().size());
    for (std::size_t i = 0; i < want_y.size(); ++i) {
      const float m = rng.next_double() < keep ? 1.0F / keep : 0.0F;
      want_y[i] = x.data()[i] * m;
      want_gx[i] = g.data()[i] * m;
    }
    expect_bytes(y.data(), want_y, "dropout forward");
    expect_bytes(gx.data(), want_gx, "dropout backward");
  }
}

/// BatchNorm1d as the scalar loops computed it: training forward (batch
/// moments, moving-stat update), eval forward, and backward.
struct ScalarBatchNorm {
  std::vector<float> gamma, beta, dgamma, dbeta, inv_std, xhat;
  std::vector<float> moving_mean, moving_var;
  float momentum = 0.9F, eps = 1e-5F;

  std::vector<float> forward(const Tensor& x, bool training) {
    const std::int64_t n = x.rows(), d = x.cols();
    std::vector<float> mean(static_cast<std::size_t>(d), 0.0F);
    std::vector<float> var(static_cast<std::size_t>(d), 0.0F);
    const float* xp = x.data().data();
    if (training) {
      const float* p = xp;
      for (std::int64_t i = 0; i < n; ++i, p += d)
        for (std::int64_t j = 0; j < d; ++j) mean[j] += p[j];
      for (std::int64_t j = 0; j < d; ++j) mean[j] /= static_cast<float>(n);
      p = xp;
      for (std::int64_t i = 0; i < n; ++i, p += d) {
        for (std::int64_t j = 0; j < d; ++j) {
          const float c = p[j] - mean[j];
          var[j] += c * c;
        }
      }
      for (std::int64_t j = 0; j < d; ++j) var[j] /= static_cast<float>(n);
      for (std::int64_t j = 0; j < d; ++j) {
        moving_mean[j] = momentum * moving_mean[j] + (1.0F - momentum) * mean[j];
        moving_var[j] = momentum * moving_var[j] + (1.0F - momentum) * var[j];
      }
    } else {
      mean = moving_mean;
      var = moving_var;
    }
    inv_std.assign(static_cast<std::size_t>(d), 0.0F);
    for (std::int64_t j = 0; j < d; ++j) inv_std[j] = 1.0F / std::sqrt(var[j] + eps);
    std::vector<float> y(static_cast<std::size_t>(n * d));
    if (training) xhat.assign(static_cast<std::size_t>(n * d), 0.0F);
    float* yp = y.data();
    const float* p = xp;
    for (std::int64_t i = 0; i < n; ++i, p += d, yp += d) {
      for (std::int64_t j = 0; j < d; ++j) {
        const float xh = (p[j] - mean[j]) * inv_std[j];
        if (training) xhat[i * d + j] = xh;
        yp[j] = gamma[j] * xh + beta[j];
      }
    }
    return y;
  }

  std::vector<float> backward(const Tensor& grad_out) {
    const std::int64_t n = grad_out.rows(), d = grad_out.cols();
    std::vector<float> sum_g(static_cast<std::size_t>(d), 0.0F);
    std::vector<float> sum_gx(static_cast<std::size_t>(d), 0.0F);
    const float* g = grad_out.data().data();
    const float* gr = g;
    const float* xr = xhat.data();
    for (std::int64_t i = 0; i < n; ++i, gr += d, xr += d) {
      for (std::int64_t j = 0; j < d; ++j) {
        sum_g[j] += gr[j];
        sum_gx[j] += gr[j] * xr[j];
      }
    }
    for (std::int64_t j = 0; j < d; ++j) {
      dbeta[j] += sum_g[j];
      dgamma[j] += sum_gx[j];
    }
    const float inv_n = 1.0F / static_cast<float>(n);
    std::vector<float> gx(static_cast<std::size_t>(n * d));
    float* gxp = gx.data();
    gr = g;
    xr = xhat.data();
    for (std::int64_t i = 0; i < n; ++i, gr += d, xr += d, gxp += d) {
      for (std::int64_t j = 0; j < d; ++j) {
        gxp[j] = gamma[j] * inv_std[j] *
                 (gr[j] - inv_n * sum_g[j] - xr[j] * inv_n * sum_gx[j]);
      }
    }
    return gx;
  }
};

TEST_P(ElementwiseExact, BatchNormMatchesTheScalarLoops) {
  const std::int64_t d = GetParam();
  for (const bool specials : {false, true}) {
    BatchNorm1d bn(d);
    *bn.params()[0] = make_input(1, d, 9, false);
    bn.params()[0]->ensure_shape({d});
    *bn.params()[1] = make_input(1, d, 10, false);
    bn.params()[1]->ensure_shape({d});

    ScalarBatchNorm ref;
    ref.gamma.assign(bn.params()[0]->data().begin(), bn.params()[0]->data().end());
    ref.beta.assign(bn.params()[1]->data().begin(), bn.params()[1]->data().end());
    ref.dgamma.assign(static_cast<std::size_t>(d), 0.0F);
    ref.dbeta.assign(static_cast<std::size_t>(d), 0.0F);
    ref.moving_mean.assign(static_cast<std::size_t>(d), 0.0F);
    ref.moving_var.assign(static_cast<std::size_t>(d), 1.0F);

    VnState state;
    // Two training steps, so the second backward also accumulates.
    for (std::uint64_t step = 0; step < 2; ++step) {
      const Tensor x = make_input(kRows, d, 11 + step, specials);
      const Tensor g = make_input(kRows, d, 13 + step, specials);
      Tensor y, gx;
      bn.forward_into(x, y, make_ctx(true, &state));
      bn.backward_into(g, gx);
      expect_bytes(y.data(), ref.forward(x, true), "batchnorm training forward");
      expect_bytes(gx.data(), ref.backward(g), "batchnorm backward");
    }
    expect_bytes(bn.grads()[0]->data(), ref.dgamma, "batchnorm gamma gradient");
    expect_bytes(bn.grads()[1]->data(), ref.dbeta, "batchnorm beta gradient");
    expect_bytes(state.get(bn.mean_key()).data(), ref.moving_mean, "batchnorm moving mean");
    expect_bytes(state.get(bn.var_key()).data(), ref.moving_var, "batchnorm moving var");

    const Tensor x = make_input(kRows, d, 15, specials);
    Tensor y;
    bn.forward_into(x, y, make_ctx(false, &state));
    expect_bytes(y.data(), ref.forward(x, false), "batchnorm eval forward");
  }
}

TEST_P(ElementwiseExact, LayerNormBackwardMatchesTheScalarLoops) {
  const std::int64_t d = GetParam();
  for (const bool specials : {false, true}) {
    LayerNorm ln(d);
    *ln.params()[0] = make_input(1, d, 16, false);
    ln.params()[0]->ensure_shape({d});
    const Tensor x = make_input(kRows, d, 17, specials);
    const Tensor g = make_input(kRows, d, 18, specials);
    Tensor y, gx;
    ln.forward_into(x, y, make_ctx(true));
    ln.backward_into(g, gx);

    // The forward loops are unchanged; recompute xhat and inv_std with
    // them, then run the scalar backward.
    const float* gp = ln.params()[0]->data().data();
    std::vector<float> xhat(static_cast<std::size_t>(kRows * d));
    std::vector<float> inv_std(static_cast<std::size_t>(kRows));
    for (std::int64_t i = 0; i < kRows; ++i) {
      const float* p = x.data().data() + i * d;
      float mean = 0.0F;
      for (std::int64_t j = 0; j < d; ++j) mean += p[j];
      mean /= static_cast<float>(d);
      float var = 0.0F;
      for (std::int64_t j = 0; j < d; ++j) {
        const float c = p[j] - mean;
        var += c * c;
      }
      var /= static_cast<float>(d);
      inv_std[i] = 1.0F / std::sqrt(var + 1e-5F);
      for (std::int64_t j = 0; j < d; ++j) xhat[i * d + j] = (p[j] - mean) * inv_std[i];
    }
    const float inv_d = 1.0F / static_cast<float>(d);
    std::vector<float> want_gx(static_cast<std::size_t>(kRows * d));
    std::vector<float> dgamma(static_cast<std::size_t>(d), 0.0F);
    std::vector<float> dbeta(static_cast<std::size_t>(d), 0.0F);
    for (std::int64_t i = 0; i < kRows; ++i) {
      const float* gr = g.data().data() + i * d;
      const float* xr = xhat.data() + i * d;
      float sum_g = 0.0F, sum_gx = 0.0F;
      for (std::int64_t j = 0; j < d; ++j) {
        const float gy = gr[j] * gp[j];
        sum_g += gy;
        sum_gx += gy * xr[j];
      }
      for (std::int64_t j = 0; j < d; ++j) {
        const float gy = gr[j] * gp[j];
        want_gx[i * d + j] = inv_std[i] * (gy - inv_d * sum_g - xr[j] * inv_d * sum_gx);
        dgamma[j] += gr[j] * xr[j];
        dbeta[j] += gr[j];
      }
    }
    expect_bytes(gx.data(), want_gx, "layernorm backward");
    expect_bytes(ln.grads()[0]->data(), dgamma, "layernorm gamma gradient");
    expect_bytes(ln.grads()[1]->data(), dbeta, "layernorm beta gradient");
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ElementwiseExact,
                         ::testing::Values<std::int64_t>(1, 7, 8, 9, 64, 65),
                         [](const ::testing::TestParamInfo<std::int64_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vf
