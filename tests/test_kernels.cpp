// Parity and dispatch tests for the SIMD kernel layer
// (src/nn/kernels/). Every tier registered in this process must be
// bit-exact against the unpacked scalar references — for the int8 GEMM
// because integer accumulation is exact, for fp32 because the tiers pin
// the per-element summation order and never contract multiply-add, and
// for fused requantization against quant_params::quantize itself, the
// canonical rounding contract the tiers replicate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/kernels.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "quant/calibrate.hpp"
#include "quant/q_model.hpp"
#include "quant/q_types.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace hawc {
namespace {

using kernels::packed_qweights;
using kernels::q_block;

/// Random int8 weights biased toward the extremes so near-saturation
/// products (127*127, -128*127) show up in every shape.
std::vector<std::int8_t> random_weights(std::size_t count, rng& r) {
    std::vector<std::int8_t> w(count);
    for (auto& v : w) {
        const double roll = r.uniform(0.0, 1.0);
        if (roll < 0.15) {
            v = 127;
        } else if (roll < 0.3) {
            v = -128;
        } else {
            v = static_cast<std::int8_t>(r.uniform(-128.0, 128.0));
        }
    }
    return w;
}

/// int16 activations in the (x - zero_point) range the quant path feeds
/// the kernels: [-255, 255], extremes included.
std::vector<std::int16_t> random_activations(std::size_t rows, std::size_t k,
                                             std::size_t stride, rng& r) {
    std::vector<std::int16_t> a(rows * stride, 0);
    for (std::size_t m = 0; m < rows; ++m) {
        for (std::size_t i = 0; i < k; ++i) {
            const double roll = r.uniform(0.0, 1.0);
            std::int16_t v;
            if (roll < 0.1) {
                v = 255;
            } else if (roll < 0.2) {
                v = -255;
            } else {
                v = static_cast<std::int16_t>(r.uniform(-256.0, 256.0));
            }
            a[m * stride + i] = v;
        }
    }
    return a;
}

// Ragged K (odd, pair padding) and ragged N (every distance from a
// q_block boundary) both appear in this sweep.
struct gemm_shape {
    std::size_t m, k, n;
};

const gemm_shape kShapes[] = {
    {1, 1, 1},  {1, 2, 8},   {3, 7, 5},   {4, 8, 16},  {5, 9, 17},
    {2, 63, 16}, {8, 512, 98}, {6, 31, 24}, {7, 16, 9},  {4, 10, 7},
};

TEST(kernel_dispatch, scalar_always_registered_and_last) {
    const auto& tiers = kernels::registered_kernels();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.back()->tier, kernels::isa_tier::scalar);
    EXPECT_STREQ(tiers.back()->name, "scalar");
    for (const auto* t : tiers) {
        ASSERT_NE(t->qgemm, nullptr);
        ASSERT_NE(t->sgemm, nullptr);
        ASSERT_NE(t->requant, nullptr);
        EXPECT_EQ(kernels::find_kernels(t->name), t);
        EXPECT_STREQ(kernels::isa_name(t->tier), t->name);
    }
    EXPECT_EQ(kernels::find_kernels("not-an-isa"), nullptr);
}

TEST(kernel_dispatch, forcing_hook_overrides_selection) {
    const kernels::kernel_ops* scalar = kernels::find_kernels("scalar");
    kernels::set_active_kernels_for_testing(scalar);
    EXPECT_EQ(&kernels::active_kernels(), scalar);
    kernels::set_active_kernels_for_testing(nullptr);
    // Clearing the hook restores the normal selection: the tier
    // HAWC_KERNEL_ISA names, else the best registered one.
    const char* env = std::getenv("HAWC_KERNEL_ISA");
    const bool named = env != nullptr && *env != '\0' && std::string_view{env} != "auto";
    EXPECT_EQ(&kernels::active_kernels(),
              named ? kernels::find_kernels(env) : kernels::registered_kernels().front());
}

TEST(kernel_dispatch, isa_gauges_report_active_tier) {
    telemetry::metrics_registry reg;
    kernels::record_isa_gauges(reg);
    const std::string text = telemetry::to_prometheus(reg);
    const std::string expected = std::string{"hawc_kernel_isa{isa=\""} +
                                 kernels::active_kernels().name + "\"} 1";
    EXPECT_NE(text.find(expected), std::string::npos) << text;
    EXPECT_NE(text.find("hawc_kernel_isa_tier"), std::string::npos);
}

TEST(pack_qweights, pads_ragged_columns_and_odd_k_with_zeros) {
    rng r{7};
    const std::size_t k = 5, n = 11;  // odd k, ragged n
    const auto w = random_weights(k * n, r);
    const packed_qweights packed = kernels::pack_qweights(w.data(), k, n);
    EXPECT_EQ(packed.padded_n(), 2 * q_block);
    EXPECT_EQ(packed.k_pairs(), 3u);
    EXPECT_EQ(packed.data.size(), packed.col_blocks() * packed.k_pairs() * 2 * q_block);
    for (std::size_t b = 0; b < packed.col_blocks(); ++b) {
        for (std::size_t p = 0; p < packed.k_pairs(); ++p) {
            for (std::size_t j = 0; j < q_block; ++j) {
                const std::size_t col = b * q_block + j;
                const std::int16_t* pair =
                    packed.data.data() + (b * packed.k_pairs() + p) * 2 * q_block + 2 * j;
                const std::int16_t want0 =
                    col < n ? static_cast<std::int16_t>(w[(2 * p) * n + col]) : 0;
                const std::int16_t want1 = (col < n && 2 * p + 1 < k)
                                               ? static_cast<std::int16_t>(w[(2 * p + 1) * n + col])
                                               : 0;
                EXPECT_EQ(pair[0], want0) << "b=" << b << " p=" << p << " j=" << j;
                EXPECT_EQ(pair[1], want1) << "b=" << b << " p=" << p << " j=" << j;
            }
        }
    }
}

TEST(kernel_parity, qgemm_every_tier_bit_exact_vs_unpacked_reference) {
    rng r{21};
    for (const auto& shape : kShapes) {
        const std::size_t stride = kernels::q_row_stride(shape.k);
        const auto w = random_weights(shape.k * shape.n, r);
        const auto a = random_activations(shape.m, shape.k, stride, r);
        const packed_qweights packed = kernels::pack_qweights(w.data(), shape.k, shape.n);
        const std::size_t pn = packed.padded_n();

        std::vector<std::int32_t> want(shape.m * pn, 0);
        kernels::reference::qgemm(a.data(), stride, shape.k, w.data(), shape.n, want.data(),
                                  pn, shape.m);

        for (const auto* tier : kernels::registered_kernels()) {
            std::vector<std::int32_t> got(shape.m * pn, 0);
            tier->qgemm(a.data(), stride, packed, got.data(), shape.m);
            for (std::size_t m = 0; m < shape.m; ++m) {
                for (std::size_t j = 0; j < shape.n; ++j) {
                    ASSERT_EQ(got[m * pn + j], want[m * pn + j])
                        << tier->name << " m=" << shape.m << " k=" << shape.k
                        << " n=" << shape.n << " at (" << m << "," << j << ")";
                }
            }
        }
    }
}

TEST(kernel_parity, qgemm_accumulates_into_caller_values) {
    rng r{22};
    const std::size_t k = 9, n = 10, stride = kernels::q_row_stride(k);
    const auto w = random_weights(k * n, r);
    const auto a = random_activations(2, k, stride, r);
    const packed_qweights packed = kernels::pack_qweights(w.data(), k, n);
    const std::size_t pn = packed.padded_n();
    for (const auto* tier : kernels::registered_kernels()) {
        std::vector<std::int32_t> once(2 * pn, 0), twice(2 * pn, 0);
        tier->qgemm(a.data(), stride, packed, once.data(), 2);
        tier->qgemm(a.data(), stride, packed, twice.data(), 2);
        tier->qgemm(a.data(), stride, packed, twice.data(), 2);
        for (std::size_t i = 0; i < once.size(); ++i) {
            ASSERT_EQ(twice[i], 2 * once[i]) << tier->name << " at " << i;
        }
    }
}

TEST(kernel_parity, sgemm_every_tier_bit_exact_vs_reference) {
    rng r{23};
    for (const auto& shape : kShapes) {
        std::vector<float> a(shape.m * shape.k), w(shape.k * shape.n), bias(shape.n);
        for (auto& v : a) v = static_cast<float>(r.normal(0.0, 1.0));
        for (auto& v : w) v = static_cast<float>(r.normal(0.0, 1.0));
        for (auto& v : bias) v = static_cast<float>(r.normal(0.0, 1.0));

        std::vector<float> want(shape.m * shape.n);
        for (std::size_t m = 0; m < shape.m; ++m) {
            for (std::size_t j = 0; j < shape.n; ++j) want[m * shape.n + j] = bias[j];
        }
        kernels::reference::sgemm(a.data(), shape.k, w.data(), shape.n, want.data(), shape.m);

        for (const auto* tier : kernels::registered_kernels()) {
            std::vector<float> got(shape.m * shape.n);
            for (std::size_t m = 0; m < shape.m; ++m) {
                for (std::size_t j = 0; j < shape.n; ++j) got[m * shape.n + j] = bias[j];
            }
            tier->sgemm(a.data(), shape.k, w.data(), shape.n, got.data(), shape.m);
            // Bit-exact, not tolerance-banded: the fp32 kernel contract
            // pins the per-element summation order across tiers.
            ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
                << tier->name << " m=" << shape.m << " k=" << shape.k << " n=" << shape.n;
        }
    }
}

/// Oracle for the fused requant contract, built from the canonical
/// quant_params::quantize the tiers replicate.
void requant_oracle(const std::int32_t* acc, std::size_t n, float in_scale,
                    const float* ws, const float* bias, const quant_params& out_q,
                    bool relu, std::int8_t* out) {
    for (std::size_t j = 0; j < n; ++j) {
        float real = static_cast<float>(acc[j]) * in_scale * ws[j] + bias[j];
        if (relu && real < 0.0f) real = 0.0f;
        out[j] = out_q.quantize(real);
    }
}

TEST(kernel_parity, requant_every_tier_matches_quantize_contract) {
    rng r{31};
    const quant_params out_q = quant_params::from_range(-4.0f, 4.0f);
    for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 98u}) {
        for (const bool relu : {false, true}) {
            std::vector<std::int32_t> acc(n);
            std::vector<float> ws(n), bias(n);
            for (auto& v : acc) {
                v = static_cast<std::int32_t>(r.uniform(-2000000.0, 2000000.0));
            }
            for (auto& v : ws) v = static_cast<float>(r.uniform(0.0001, 0.01));
            for (auto& v : bias) v = static_cast<float>(r.normal(0.0, 1.0));
            std::vector<std::int8_t> want(n), got(n);
            requant_oracle(acc.data(), n, 0.05f, ws.data(), bias.data(), out_q, relu,
                           want.data());
            for (const auto* tier : kernels::registered_kernels()) {
                std::fill(got.begin(), got.end(), std::int8_t{42});
                tier->requant(acc.data(), n, 0.05f, ws.data(), bias.data(), out_q.scale,
                              out_q.zero_point, relu, got.data());
                ASSERT_EQ(std::memcmp(got.data(), want.data(), n), 0)
                    << tier->name << " n=" << n << " relu=" << relu;
            }
        }
    }
}

TEST(kernel_parity, requant_rounding_saturation_and_nonfinite_edges) {
    // Drive `real` to exact values through acc=0 / ws=1 / bias=x, and the
    // quantized value q = real/scale + zp to exact values with scale=1,
    // zp=0: half-ties must round away from zero, out-of-range must
    // saturate, NaN must map to the zero-point code and infinities to the
    // endpoints — in the vector body, not just the scalar tail, hence 16
    // lanes.
    const float inf = std::numeric_limits<float>::infinity();
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> reals = {0.5f,    -0.5f,   2.5f,  -2.5f,     126.5f, -127.5f,
                                      127.49f, -128.5f, 200.0f, -200.0f,  0.49999997f,
                                      -0.49999997f,     qnan,  inf,      -inf,    8388609.0f};
    const std::size_t n = reals.size();
    const std::vector<std::int32_t> acc(n, 0);
    const std::vector<float> ws(n, 1.0f);
    quant_params out_q;  // scale 1, zero_point 0
    for (const std::int32_t zp : {0, -5}) {
        out_q.zero_point = zp;
        std::vector<std::int8_t> want(n), got(n);
        requant_oracle(acc.data(), n, 1.0f, ws.data(), reals.data(), out_q, false,
                       want.data());
        for (const auto* tier : kernels::registered_kernels()) {
            tier->requant(acc.data(), n, 1.0f, ws.data(), reals.data(), out_q.scale,
                          out_q.zero_point, false, got.data());
            for (std::size_t j = 0; j < n; ++j) {
                ASSERT_EQ(got[j], want[j])
                    << tier->name << " real=" << reals[j] << " zp=" << zp;
            }
        }
    }
}

TEST(kernel_parity, quantize_every_tier_matches_quantize_contract) {
    // Edge values cycle through every lane position of the vector body
    // and the scalar tail: every length 0..33 starts the cycle at a
    // different offset. With scale 1 the quotient is the value itself, so
    // the +/-k.5 entries are exact rounding ties.
    const float inf = std::numeric_limits<float>::infinity();
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const std::vector<float> edges = {0.5f,    -0.5f,  2.5f,    -2.5f,       126.5f,
                                      -127.5f, 127.5f, -128.5f, 200.0f,      -200.0f,
                                      1e30f,   -1e30f, qnan,    inf,         -inf,
                                      0.0f,    -0.0f,  8388609.0f, 0.49999997f, -3.25f};
    rng r{41};
    constexpr std::int8_t sentinel = 42;
    quant_params unit;  // scale 1
    for (const quant_params base : {unit, quant_params::from_range(-3.0f, 5.0f)}) {
        for (const std::int32_t zp : {0, -5, -128, 127}) {
            quant_params q = base;
            q.zero_point = zp;
            const double spread = 200.0 * static_cast<double>(q.scale);
            for (std::size_t n = 0; n <= 33; ++n) {
                std::vector<float> x(n);
                for (std::size_t j = 0; j < n; ++j) {
                    x[j] = j % 3 == 2 ? static_cast<float>(r.normal(0.0, spread))
                                      : edges[(j + n) % edges.size()];
                }
                std::vector<std::int8_t> want(n);
                for (std::size_t j = 0; j < n; ++j) want[j] = q.quantize(x[j]);
                for (const auto* tier : kernels::registered_kernels()) {
                    std::vector<std::int8_t> got(n + 8, sentinel);
                    tier->quantize(x.data(), n, q.scale, q.zero_point, got.data());
                    for (std::size_t j = 0; j < n; ++j) {
                        ASSERT_EQ(got[j], want[j]) << tier->name << " n=" << n << " j=" << j
                                                   << " x=" << x[j] << " zp=" << zp
                                                   << " scale=" << q.scale;
                    }
                    for (std::size_t j = n; j < got.size(); ++j) {
                        ASSERT_EQ(got[j], sentinel) << tier->name << " wrote past n=" << n;
                    }
                }
            }
        }
    }
}

/// Direct-loop int8 forward over a model's ops: bounds-checked taps, no
/// im2col, no packed weights, no workspace, every activation through
/// quant_params::quantize. An independent oracle for the execution
/// layout of quantized_model::forward.
tensor reference_int8_forward(const quantized_model& model, const tensor& input) {
    std::vector<std::size_t> shape = input.shape();
    quant_params params = model.input_params();
    std::vector<std::int8_t> x(input.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = params.quantize(input[i]);
    const auto requant = [](std::int32_t acc, float in_scale, float ws, float bias, bool relu,
                            const quant_params& out_q) {
        float real = static_cast<float>(acc) * in_scale * ws + bias;
        if (relu && real < 0.0f) real = 0.0f;
        return out_q.quantize(real);
    };
    for (std::size_t oi = 0; oi < model.op_count(); ++oi) {
        std::visit(
            [&](const auto& op) {
                using T = std::decay_t<decltype(op)>;
                std::vector<std::int8_t> y;
                if constexpr (std::is_same_v<T, q_conv_op>) {
                    const std::size_t b = shape[0], h = shape[1], w = shape[2];
                    const std::size_t oh_n = h + 2 * op.pad - op.kernel + 1;
                    const std::size_t ow_n = w + 2 * op.pad - op.kernel + 1;
                    const std::size_t ci_n = op.in_channels, co_n = op.out_channels;
                    for (std::size_t n = 0; n < b; ++n)
                    for (std::size_t oh = 0; oh < oh_n; ++oh)
                    for (std::size_t ow = 0; ow < ow_n; ++ow)
                    for (std::size_t co = 0; co < co_n; ++co) {
                        std::int32_t acc = 0;
                        for (std::size_t kh = 0; kh < op.kernel; ++kh)
                        for (std::size_t kw = 0; kw < op.kernel; ++kw) {
                            const long ih = static_cast<long>(oh + kh) - static_cast<long>(op.pad);
                            const long iw = static_cast<long>(ow + kw) - static_cast<long>(op.pad);
                            if (ih < 0 || iw < 0 || ih >= static_cast<long>(h) ||
                                iw >= static_cast<long>(w)) {
                                continue;
                            }
                            for (std::size_t ci = 0; ci < ci_n; ++ci) {
                                const std::size_t xi =
                                    ((n * h + static_cast<std::size_t>(ih)) * w +
                                     static_cast<std::size_t>(iw)) * ci_n + ci;
                                acc += (x[xi] - op.in_q.zero_point) *
                                       op.weights[((kh * op.kernel + kw) * ci_n + ci) * co_n + co];
                            }
                        }
                        y.push_back(requant(acc, op.in_q.scale, op.weight_scales[co],
                                            op.bias[co], op.fused_relu, op.out_q));
                    }
                    shape = {b, oh_n, ow_n, co_n};
                    params = op.out_q;
                } else if constexpr (std::is_same_v<T, q_dense_op>) {
                    for (std::size_t n = 0; n < shape[0]; ++n) {
                        for (std::size_t o = 0; o < op.out_features; ++o) {
                            std::int32_t acc = 0;
                            for (std::size_t i = 0; i < op.in_features; ++i) {
                                acc += (x[n * op.in_features + i] - op.in_q.zero_point) *
                                       op.weights[i * op.out_features + o];
                            }
                            y.push_back(requant(acc, op.in_q.scale, op.weight_scales[o],
                                                op.bias[o], op.fused_relu, op.out_q));
                        }
                    }
                    shape = {shape[0], op.out_features};
                    params = op.out_q;
                } else if constexpr (std::is_same_v<T, q_pool_op>) {
                    const std::size_t b = shape[0], h = shape[1], w = shape[2], c = shape[3];
                    const std::size_t oh_n = h / op.window, ow_n = w / op.window;
                    for (std::size_t n = 0; n < b; ++n)
                    for (std::size_t oh = 0; oh < oh_n; ++oh)
                    for (std::size_t ow = 0; ow < ow_n; ++ow)
                    for (std::size_t ch = 0; ch < c; ++ch) {
                        std::int8_t best = -128;
                        for (std::size_t kh = 0; kh < op.window; ++kh)
                        for (std::size_t kw = 0; kw < op.window; ++kw) {
                            best = std::max(best, x[((n * h + oh * op.window + kh) * w +
                                                     ow * op.window + kw) * c + ch]);
                        }
                        y.push_back(best);
                    }
                    shape = {b, oh_n, ow_n, c};
                } else if constexpr (std::is_same_v<T, q_global_pool_op>) {
                    const std::size_t spatial = shape[1] * shape[2], c = shape[3];
                    y.assign(shape[0] * c, -128);
                    for (std::size_t n = 0; n < shape[0]; ++n)
                    for (std::size_t s = 0; s < spatial; ++s)
                    for (std::size_t ch = 0; ch < c; ++ch) {
                        y[n * c + ch] = std::max(y[n * c + ch], x[(n * spatial + s) * c + ch]);
                    }
                    shape = {shape[0], 1, 1, c};
                } else {
                    y = x;
                    shape = {shape[0], x.size() / shape[0]};
                }
                x = std::move(y);
            },
            model.op_at(oi));
    }
    tensor out{shape};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = params.dequantize(x[i]);
    return out;
}

TEST(kernel_parity, pooled_twelve_channel_model_matches_direct_reference) {
    // The golden net's shape — conv -> pool -> 12-channel conv -> pool ->
    // 12-channel conv -> flatten -> dense — at odd spatial sizes: both
    // pools drop a trailing row and column the convs then skip, and the
    // unpooled last conv's 3-wide rows of 12 channels plus the 5-wide
    // dense leave requant tails past the 8-lane body. Every tier at 1
    // and 3 threads must match the direct-loop reference bit for bit.
    rng r{79};
    sequential model;
    model.emplace<conv2d>(3, 8, 3, padding::same, r);
    model.emplace<relu>();
    model.emplace<max_pool2d>(2);
    model.emplace<conv2d>(8, 12, 3, padding::same, r);
    model.emplace<relu>();
    model.emplace<max_pool2d>(2);
    model.emplace<conv2d>(12, 12, 3, padding::same, r);
    model.emplace<relu>();
    model.emplace<flatten>();
    model.emplace<dense>(3 * 3 * 12, 5, r);

    std::vector<tensor> calib;
    for (int i = 0; i < 4; ++i) {
        tensor t{{1, 13, 15, 3}};
        for (std::size_t j = 0; j < t.size(); ++j) {
            t[j] = static_cast<float>(r.normal(0.0, 1.0));
        }
        calib.push_back(std::move(t));
    }
    const quantized_model q = quantize_model(model, calib);

    tensor batch = tensor::stack({calib[0], calib[1], calib[2]});
    batch[7] = std::numeric_limits<float>::quiet_NaN();
    batch[100] = std::numeric_limits<float>::infinity();
    batch[200] = -std::numeric_limits<float>::infinity();
    const tensor want = reference_int8_forward(q, batch);
    ASSERT_EQ(want.shape(), (std::vector<std::size_t>{3, 5}));

    const std::size_t threads = global_thread_count();
    for (const auto* tier : kernels::registered_kernels()) {
        kernels::set_active_kernels_for_testing(tier);
        for (const std::size_t t : {1u, 3u}) {
            set_global_thread_count(t);
            const tensor got = q.forward(batch);
            ASSERT_EQ(got.shape(), want.shape());
            ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
                << tier->name << " at " << t << " threads";
        }
    }
    set_global_thread_count(threads);
    kernels::set_active_kernels_for_testing(nullptr);
}

TEST(kernel_parity, forced_tiers_produce_identical_model_outputs) {
    // End-to-end: calibrate a small conv+dense model once, then run the
    // int8 forward under every registered tier. int8 activations are
    // bit-exact across tiers, so the dequantized logits must match
    // exactly too.
    rng r{77};
    sequential model;
    model.emplace<conv2d>(3, 8, 3, padding::same, r);
    model.emplace<relu>();
    model.emplace<flatten>();
    model.emplace<dense>(8 * 6 * 6, 4, r);

    std::vector<tensor> calib;
    for (int i = 0; i < 4; ++i) {
        tensor t{{1, 6, 6, 3}};
        for (std::size_t j = 0; j < t.size(); ++j) {
            t[j] = static_cast<float>(r.normal(0.0, 1.0));
        }
        calib.push_back(std::move(t));
    }
    const quantized_model q = quantize_model(model, calib);

    const tensor& sample = calib.front();
    kernels::set_active_kernels_for_testing(kernels::find_kernels("scalar"));
    const tensor want = q.forward(sample);
    for (const auto* tier : kernels::registered_kernels()) {
        kernels::set_active_kernels_for_testing(tier);
        const tensor got = q.forward(sample);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], want[i]) << tier->name << " logit " << i;
        }
    }
    kernels::set_active_kernels_for_testing(nullptr);
}

}  // namespace
}  // namespace hawc
