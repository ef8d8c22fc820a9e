#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels/kernels.hpp"

namespace hawc {

conv2d::conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               padding pad, rng& random)
    : in_channels_{in_channels},
      out_channels_{out_channels},
      kernel_{kernel},
      pad_{pad},
      weights_{{kernel, kernel, in_channels, out_channels}},
      bias_{{out_channels}} {
    HAWC_REQUIRE(kernel >= 1, "kernel must be at least 1");
    // He-normal init: std = sqrt(2 / fan_in).
    const double std_dev = std::sqrt(2.0 / static_cast<double>(kernel * kernel * in_channels));
    for (std::size_t i = 0; i < weights_.value.size(); ++i) {
        weights_.value[i] = static_cast<float>(random.normal(0.0, std_dev));
    }
}

std::vector<std::size_t> conv2d::output_shape(std::vector<std::size_t> input) const {
    HAWC_REQUIRE(input.size() == 4, "conv2d input must be rank 4");
    HAWC_REQUIRE(input[3] == in_channels_, "conv2d channel mismatch");
    const std::size_t p = pad_amount();
    input[1] = input[1] + 2 * p - kernel_ + 1;
    input[2] = input[2] + 2 * p - kernel_ + 1;
    input[3] = out_channels_;
    return input;
}

tensor conv2d::infer(const tensor& input) const {
    const auto out_shape = output_shape(input.shape());
    tensor out{out_shape};

    const std::size_t batch = input.dim(0);
    const std::size_t in_h = input.dim(1);
    const std::size_t in_w = input.dim(2);
    const std::size_t out_h = out_shape[1];
    const std::size_t out_w = out_shape[2];
    const std::size_t p = pad_amount();
    const std::size_t K = kernel_ * kernel_ * in_channels_;

    const float* w = weights_.value.data();
    const float* b = bias_.value.data();

    // im2col + GEMM, one output row at a time: the patch matrix for a row
    // is out_w x K floats (a few KB — it stays in L1), and its contiguous
    // layout turns the GEMM into branch-free streaming over the
    // (k, k, Cin, Cout) weight tensor. The dispatched sgemm accumulates k
    // ascending per output element with separate multiply and add, so
    // every ISA tier is bit-identical to the naive direct convolution
    // (padding cells hold exact zeros and contribute exact zero terms).
    // Rows are independent, so batch x out_h fans out across the pool
    // with one scratch buffer per chunk.
    const kernels::kernel_ops& kern = kernels::active_kernels();
    global_pool().parallel_for(0, batch * out_h, 4, [&](std::size_t lo, std::size_t hi,
                                                        std::size_t /*chunk*/) {
        std::vector<float> col(out_w * K);
        for (std::size_t r = lo; r < hi; ++r) {
            const std::size_t n = r / out_h;
            const std::size_t oh = r % out_h;
            std::fill(col.begin(), col.end(), 0.0f);  // padding cells stay exact zero
            for (std::size_t ow = 0; ow < out_w; ++ow) {
                float* dst = col.data() + ow * K;
                for (std::size_t kh = 0; kh < kernel_; ++kh) {
                    const std::ptrdiff_t ih =
                        static_cast<std::ptrdiff_t>(oh + kh) - static_cast<std::ptrdiff_t>(p);
                    if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(in_h)) continue;
                    // In-bounds kw form one contiguous (kw, ic) run in NHWC
                    // input memory — one copy per (ow, kh).
                    const std::size_t kw_lo = p > ow ? p - ow : 0;
                    const std::size_t kw_hi = std::min(kernel_, in_w + p - ow);
                    if (kw_lo >= kw_hi) continue;
                    const float* src =
                        &input.at(n, static_cast<std::size_t>(ih), ow + kw_lo - p, 0);
                    std::copy_n(src, (kw_hi - kw_lo) * in_channels_,
                                dst + (kh * kernel_ + kw_lo) * in_channels_);
                }
            }
            float* out_row = &out.at(n, oh, 0, 0);
            for (std::size_t ow = 0; ow < out_w; ++ow) {
                std::copy_n(b, out_channels_, out_row + ow * out_channels_);
            }
            kern.sgemm(col.data(), K, w, out_channels_, out_row, out_w);
        }
    });
    return out;
}

tensor conv2d::forward(const tensor& input, bool training) {
    // Backward needs the input; caching it on the inference path would
    // deep-copy every activation map for nothing. Clearing on eval makes
    // a mispaired backward fail loudly instead of using stale data.
    if (training) {
        cached_input_ = input;
    } else {
        cached_input_ = tensor{};
    }
    last_hw_[0] = input.dim(1) + 2 * pad_amount() - kernel_ + 1;
    last_hw_[1] = input.dim(2) + 2 * pad_amount() - kernel_ + 1;
    return infer(input);
}

tensor conv2d::backward(const tensor& grad_output) {
    HAWC_REQUIRE(cached_input_.size() > 0, "backward before forward");
    const tensor& input = cached_input_;
    tensor grad_input{input.shape()};

    const std::size_t batch = input.dim(0);
    const std::size_t in_h = input.dim(1);
    const std::size_t in_w = input.dim(2);
    const std::size_t out_h = grad_output.dim(1);
    const std::size_t out_w = grad_output.dim(2);
    const std::size_t p = pad_amount();

    const float* w = weights_.value.data();
    float* dw = weights_.grad.data();
    float* db = bias_.grad.data();

    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
            for (std::size_t ow = 0; ow < out_w; ++ow) {
                const float* g_px = &grad_output.at(n, oh, ow, 0);
                for (std::size_t oc = 0; oc < out_channels_; ++oc) db[oc] += g_px[oc];
                for (std::size_t kh = 0; kh < kernel_; ++kh) {
                    const std::ptrdiff_t ih =
                        static_cast<std::ptrdiff_t>(oh + kh) - static_cast<std::ptrdiff_t>(p);
                    if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(in_h)) continue;
                    for (std::size_t kw = 0; kw < kernel_; ++kw) {
                        const std::ptrdiff_t iw =
                            static_cast<std::ptrdiff_t>(ow + kw) - static_cast<std::ptrdiff_t>(p);
                        if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(in_w)) continue;
                        const float* in_px = &input.at(n, static_cast<std::size_t>(ih),
                                                       static_cast<std::size_t>(iw), 0);
                        float* gin_px = &grad_input.at(n, static_cast<std::size_t>(ih),
                                                       static_cast<std::size_t>(iw), 0);
                        const std::size_t w_base = (kh * kernel_ + kw) * in_channels_ * out_channels_;
                        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
                            const float x = in_px[ic];
                            const float* w_row = &w[w_base + ic * out_channels_];
                            float* dw_row = &dw[w_base + ic * out_channels_];
                            float g_in = 0.0f;
                            for (std::size_t oc = 0; oc < out_channels_; ++oc) {
                                const float g = g_px[oc];
                                dw_row[oc] += x * g;
                                g_in += w_row[oc] * g;
                            }
                            gin_px[ic] += g_in;
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

layer_info conv2d::info() const {
    layer_info li;
    li.name = "conv2d(" + std::to_string(kernel_) + "x" + std::to_string(kernel_) + "," +
              std::to_string(in_channels_) + "->" + std::to_string(out_channels_) + ")";
    li.kind = op_kind::convolution;
    li.parameter_count = weights_.value.size() + bias_.value.size();
    const std::size_t out_hw = last_hw_[0] * last_hw_[1];
    li.macs_per_sample = out_hw * out_channels_ * kernel_ * kernel_ * in_channels_;
    li.activations_per_sample = out_hw * out_channels_;
    return li;
}

}  // namespace hawc
