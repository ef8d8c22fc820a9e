#include "quant/q_model.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels/kernels.hpp"

namespace hawc {

namespace {

// Execution layout of the int8 forward. The math is fixed by the
// serialized model and the kernel contracts (kernels.hpp); this file only
// decides where the bytes live:
//
//   - Activations ping-pong between two int8 buffers of a per-thread
//     workspace, so a steady-state forward allocates nothing but its
//     returned logits. A thread that runs a parallel_for chunk uses its
//     own workspace's col/acc scratch; the activation buffers belong to
//     the thread that called forward.
//   - A conv widens its input once to int16 (x - zp_in) in a zero-padded
//     buffer. A padding tap is then a stored zero, exactly what the
//     skipped taps of a bounds-checked im2col contribute, and every patch
//     row is `kernel` memcpy runs of kernel * Cin values.
//   - Each block of output rows is one qgemm call and one requant call per
//     output row: the accumulators are compacted to Cout columns and the
//     per-channel scale/bias tables tiled across the row, so the requant
//     kernel's vector body covers the row instead of one pixel at a time.
//   - A conv followed by a pool computes only the rows and columns the
//     pool windows read (pooling floors), e.g. 14 of 15 per side on the
//     golden net's first conv.
//
// Integer accumulation is exact and requantization is elementwise, so
// none of this changes a single int8 activation (the golden int8 logit
// digest in tests/test_replay.cpp pins that).

/// Activation dims without heap storage: (batch, h, w, c) at rank 4,
/// (batch, features) at rank 2.
struct act_shape {
    std::array<std::size_t, 4> dims{};
    std::size_t rank = 0;

    std::size_t size() const {
        std::size_t n = 1;
        for (std::size_t d = 0; d < rank; ++d) n *= dims[d];
        return n;
    }
};

/// Scratch buffers only grow (to the largest shape this thread has run),
/// so after the first forward of a given model they never reallocate.
struct forward_workspace {
    std::array<std::vector<std::int8_t>, 2> act;  // ping-pong activations
    std::vector<std::int16_t> centred;            // conv input, int16 (x - zp), padded
    std::vector<float> row_scales;                // per-channel tables tiled over a row
    std::vector<float> row_bias;
    std::vector<std::int16_t> col;  // im2col patches / widened dense rows
    std::vector<std::int32_t> acc;  // qgemm accumulators
};

forward_workspace& thread_workspace() {
    thread_local forward_workspace ws;
    return ws;
}

template <typename T>
T* grow(std::vector<T>& buffer, std::size_t n) {
    if (buffer.size() < n) buffer.resize(n);
    return buffer.data();
}

void widen_centred(const std::int8_t* src, std::size_t n, std::int32_t zp, std::int16_t* dst) {
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int16_t>(static_cast<std::int32_t>(src[i]) - zp);
    }
}

/// Patch-matrix budget of one qgemm call, in int16 elements (32 KiB):
/// large enough that the golden net runs each conv as one call at batch
/// 1, small enough that the patches stay cache-resident.
constexpr std::size_t col_budget = 16384;

/// Everything one conv chunk reads; the parallel_for body captures only a
/// reference to it, which keeps the std::function small enough to live
/// without a heap allocation.
struct conv_plan {
    const q_conv_op* op;
    const kernels::kernel_ops* kern;
    const std::int16_t* centred;
    const float* row_scales;
    const float* row_bias;
    std::int8_t* out;
    std::size_t padded_h, padded_w;
    std::size_t out_h, out_w;
    std::size_t k, a_stride, rows_per_block;
};

void conv_rows(const conv_plan& p, std::size_t lo, std::size_t hi) {
    const q_conv_op& op = *p.op;
    const std::size_t cin = op.in_channels;
    const std::size_t cout = op.out_channels;
    const std::size_t pn = op.packed.padded_n();
    const std::size_t run = op.kernel * cin;
    const std::size_t row_n = p.out_w * cout;
    forward_workspace& ws = thread_workspace();  // this lane's own scratch
    for (std::size_t r0 = lo; r0 < hi; r0 += p.rows_per_block) {
        const std::size_t rows = std::min(p.rows_per_block, hi - r0);
        const std::size_t patches = rows * p.out_w;
        std::int16_t* col = grow(ws.col, patches * p.a_stride);
        std::int32_t* acc = grow(ws.acc, patches * pn);
        for (std::size_t i = 0; i < rows; ++i) {
            const std::size_t n = (r0 + i) / p.out_h;
            const std::size_t oh = (r0 + i) % p.out_h;
            for (std::size_t ow = 0; ow < p.out_w; ++ow) {
                std::int16_t* dst = col + (i * p.out_w + ow) * p.a_stride;
                for (std::size_t kh = 0; kh < op.kernel; ++kh) {
                    const std::int16_t* src =
                        p.centred + ((n * p.padded_h + oh + kh) * p.padded_w + ow) * cin;
                    std::memcpy(dst + kh * run, src, run * sizeof(std::int16_t));
                }
                if (p.a_stride > p.k) dst[p.k] = 0;  // even-stride pad column
            }
        }
        std::fill(acc, acc + patches * pn, 0);
        p.kern->qgemm(col, p.a_stride, op.packed, acc, patches);
        if (pn != cout) {  // compact the padded columns away
            for (std::size_t px = 1; px < patches; ++px) {
                std::memmove(acc + px * cout, acc + px * pn, cout * sizeof(std::int32_t));
            }
        }
        for (std::size_t i = 0; i < rows; ++i) {
            p.kern->requant(acc + i * row_n, row_n, op.in_q.scale, p.row_scales, p.row_bias,
                            op.out_q.scale, op.out_q.zero_point, op.fused_relu,
                            p.out + (r0 + i) * row_n);
        }
    }
}

/// `crop` is the window of a pool that consumes this conv's output (1
/// when none does): out_h and out_w round down to a multiple of it.
void run_conv(const q_conv_op& op, const kernels::kernel_ops& kern, forward_workspace& ws,
              const std::int8_t* in, act_shape& shape, std::size_t crop,
              std::vector<std::int8_t>& out) {
    HAWC_REQUIRE(shape.rank == 4, "q_conv expects rank-4 input");
    HAWC_REQUIRE(shape.dims[3] == op.in_channels, "q_conv channel mismatch");
    const std::size_t batch = shape.dims[0];
    const std::size_t in_h = shape.dims[1];
    const std::size_t in_w = shape.dims[2];
    const std::size_t cin = op.in_channels;
    const std::size_t cout = op.out_channels;

    conv_plan p{};
    p.op = &op;
    p.kern = &kern;
    p.padded_h = in_h + 2 * op.pad;
    p.padded_w = in_w + 2 * op.pad;
    p.out_h = p.padded_h - op.kernel + 1;
    p.out_w = p.padded_w - op.kernel + 1;
    p.out_h -= p.out_h % crop;
    p.out_w -= p.out_w % crop;
    p.k = op.kernel * op.kernel * cin;
    p.a_stride = kernels::q_row_stride(p.k);
    p.rows_per_block = std::max<std::size_t>(1, col_budget / std::max<std::size_t>(
                                                                 1, p.out_w * p.a_stride));

    const std::size_t padded_row = p.padded_w * cin;
    std::int16_t* centred = grow(ws.centred, batch * p.padded_h * padded_row);
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t ph = 0; ph < p.padded_h; ++ph) {
            std::int16_t* dst = centred + (n * p.padded_h + ph) * padded_row;
            if (ph < op.pad || ph >= op.pad + in_h) {
                std::fill(dst, dst + padded_row, std::int16_t{0});
                continue;
            }
            const std::int8_t* src = in + (n * in_h + (ph - op.pad)) * in_w * cin;
            std::fill(dst, dst + op.pad * cin, std::int16_t{0});
            widen_centred(src, in_w * cin, op.in_q.zero_point, dst + op.pad * cin);
            std::fill(dst + (op.pad + in_w) * cin, dst + padded_row, std::int16_t{0});
        }
    }
    p.centred = centred;

    float* scales = grow(ws.row_scales, p.out_w * cout);
    float* bias = grow(ws.row_bias, p.out_w * cout);
    for (std::size_t ow = 0; ow < p.out_w; ++ow) {
        std::copy(op.weight_scales.begin(), op.weight_scales.end(), scales + ow * cout);
        std::copy(op.bias.begin(), op.bias.end(), bias + ow * cout);
    }
    p.row_scales = scales;
    p.row_bias = bias;

    shape.dims = {batch, p.out_h, p.out_w, cout};
    p.out = grow(out, shape.size());
    // Parallel over output rows in chunks of 4 (the thread_pool contract:
    // chunk bounds depend only on rows and grain); each row writes a
    // disjoint slice of `out`, so which lane runs a chunk never matters.
    global_pool().parallel_for(0, batch * p.out_h, 4,
                               [&p](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
                                   conv_rows(p, lo, hi);
                               });
}

struct dense_plan {
    const q_dense_op* op;
    const kernels::kernel_ops* kern;
    const std::int8_t* in;
    std::int8_t* out;
    std::size_t a_stride;
};

void dense_rows(const dense_plan& p, std::size_t lo, std::size_t hi) {
    const q_dense_op& op = *p.op;
    const std::size_t pn = op.packed.padded_n();
    const std::size_t rows = hi - lo;
    forward_workspace& ws = thread_workspace();  // this lane's own scratch
    std::int16_t* xw = grow(ws.col, rows * p.a_stride);
    std::int32_t* acc = grow(ws.acc, rows * pn);
    for (std::size_t i = 0; i < rows; ++i) {
        std::int16_t* x_row = xw + i * p.a_stride;
        widen_centred(p.in + (lo + i) * op.in_features, op.in_features, op.in_q.zero_point,
                      x_row);
        if (p.a_stride > op.in_features) x_row[op.in_features] = 0;  // even-stride pad
    }
    std::fill(acc, acc + rows * pn, 0);
    p.kern->qgemm(xw, p.a_stride, op.packed, acc, rows);
    for (std::size_t i = 0; i < rows; ++i) {
        p.kern->requant(acc + i * pn, op.out_features, op.in_q.scale, op.weight_scales.data(),
                        op.bias.data(), op.out_q.scale, op.out_q.zero_point, op.fused_relu,
                        p.out + (lo + i) * op.out_features);
    }
}

void run_dense(const q_dense_op& op, const kernels::kernel_ops& kern, const std::int8_t* in,
               act_shape& shape, std::vector<std::int8_t>& out) {
    HAWC_REQUIRE(shape.rank == 2, "q_dense expects rank-2 input");
    HAWC_REQUIRE(shape.dims[1] == op.in_features, "q_dense feature mismatch");
    const std::size_t batch = shape.dims[0];
    shape.dims[1] = op.out_features;
    const dense_plan p{&op, &kern, in, grow(out, shape.size()),
                       kernels::q_row_stride(op.in_features)};
    // Parallel over batch rows, same chunk contract as the conv; each
    // chunk is one blocked qgemm over 4 rows, the rows the microkernel
    // register-tiles against each 8-column block.
    global_pool().parallel_for(0, batch, 4,
                               [&p](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
                                   dense_rows(p, lo, hi);
                               });
}

void run_pool(const q_pool_op& op, const std::int8_t* in, act_shape& shape,
              std::vector<std::int8_t>& out) {
    HAWC_REQUIRE(shape.rank == 4, "q_pool expects rank-4 input");
    const std::size_t batch = shape.dims[0];
    const std::size_t in_h = shape.dims[1];
    const std::size_t in_w = shape.dims[2];
    const std::size_t c = shape.dims[3];
    const std::size_t win = op.window;
    const std::size_t out_h = in_h / win;
    const std::size_t out_w = in_w / win;
    shape.dims = {batch, out_h, out_w, c};
    std::int8_t* dst_base = grow(out, shape.size());

    // Max pooling preserves scale. Each output row starts at -128 and
    // takes the running max over its window rows, with channels
    // innermost so the loops run over contiguous bytes.
    for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t oh = 0; oh < out_h; ++oh) {
            std::int8_t* dst = dst_base + (n * out_h + oh) * out_w * c;
            std::fill(dst, dst + out_w * c, std::int8_t{-128});
            for (std::size_t kh = 0; kh < win; ++kh) {
                const std::int8_t* src_row = in + (n * in_h + oh * win + kh) * in_w * c;
                for (std::size_t ow = 0; ow < out_w; ++ow) {
                    std::int8_t* px_out = dst + ow * c;
                    for (std::size_t kw = 0; kw < win; ++kw) {
                        const std::int8_t* px = src_row + (ow * win + kw) * c;
                        for (std::size_t ch = 0; ch < c; ++ch) {
                            px_out[ch] = std::max(px_out[ch], px[ch]);
                        }
                    }
                }
            }
        }
    }
}

void run_global_pool(const std::int8_t* in, act_shape& shape, std::vector<std::int8_t>& out) {
    HAWC_REQUIRE(shape.rank == 4, "q_global_pool expects rank-4 input");
    const std::size_t batch = shape.dims[0];
    const std::size_t spatial = shape.dims[1] * shape.dims[2];
    const std::size_t c = shape.dims[3];
    shape.dims = {batch, 1, 1, c};
    std::int8_t* dst_base = grow(out, shape.size());
    for (std::size_t n = 0; n < batch; ++n) {
        std::int8_t* dst = dst_base + n * c;
        std::fill(dst, dst + c, std::int8_t{-128});
        for (std::size_t s = 0; s < spatial; ++s) {
            const std::int8_t* px = in + (n * spatial + s) * c;
            for (std::size_t ch = 0; ch < c; ++ch) dst[ch] = std::max(dst[ch], px[ch]);
        }
    }
}

}  // namespace

void quantized_model::add_op(q_op op) {
    // Pack conv/dense weights into the kernel layer's tiled layout once,
    // at model-build time. The unpacked row-major weights stay on the op
    // as the source of truth (serialization, the parity harness's scalar
    // reference, and introspection all read them).
    std::visit(
        [](auto& concrete) {
            using T = std::decay_t<decltype(concrete)>;
            if constexpr (std::is_same_v<T, q_conv_op>) {
                const std::size_t k =
                    concrete.kernel * concrete.kernel * concrete.in_channels;
                concrete.packed =
                    kernels::pack_qweights(concrete.weights.data(), k, concrete.out_channels);
            } else if constexpr (std::is_same_v<T, q_dense_op>) {
                concrete.packed = kernels::pack_qweights(
                    concrete.weights.data(), concrete.in_features, concrete.out_features);
            }
        },
        op);
    ops_.push_back(std::move(op));
}

tensor quantized_model::forward(const tensor& input) const {
    HAWC_REQUIRE(input.rank() >= 1 && input.rank() <= 4, "q_model expects a rank 1-4 input");
    const kernels::kernel_ops& kern = kernels::active_kernels();
    forward_workspace& ws = thread_workspace();

    act_shape shape;
    shape.rank = input.rank();
    std::copy(input.shape().begin(), input.shape().end(), shape.dims.begin());
    kern.quantize(input.data(), input.size(), input_params_.scale, input_params_.zero_point,
                  grow(ws.act[0], input.size()));
    quant_params params = input_params_;
    std::size_t cur = 0;  // ws.act[cur] holds the live activation

    for (std::size_t i = 0; i < ops_.size(); ++i) {
        const std::int8_t* in = ws.act[cur].data();
        std::vector<std::int8_t>& out = ws.act[1 - cur];
        bool swapped = true;
        std::visit(
            [&](const auto& concrete) {
                using T = std::decay_t<decltype(concrete)>;
                if constexpr (std::is_same_v<T, q_conv_op>) {
                    const q_pool_op* pool =
                        i + 1 < ops_.size() ? std::get_if<q_pool_op>(&ops_[i + 1]) : nullptr;
                    const std::size_t crop =
                        pool != nullptr ? std::max<std::size_t>(pool->window, 1) : 1;
                    run_conv(concrete, kern, ws, in, shape, crop, out);
                    params = concrete.out_q;
                } else if constexpr (std::is_same_v<T, q_dense_op>) {
                    run_dense(concrete, kern, in, shape, out);
                    params = concrete.out_q;
                } else if constexpr (std::is_same_v<T, q_pool_op>) {
                    run_pool(concrete, in, shape, out);
                } else if constexpr (std::is_same_v<T, q_global_pool_op>) {
                    run_global_pool(in, shape, out);
                } else {  // flatten: a reshape of the live buffer, no copy
                    std::size_t features = 1;
                    for (std::size_t d = 1; d < shape.rank; ++d) features *= shape.dims[d];
                    shape.dims = {shape.dims[0], features, 0, 0};
                    shape.rank = 2;
                    swapped = false;
                }
            },
            ops_[i]);
        if (swapped) cur = 1 - cur;
    }

    tensor logits{std::vector<std::size_t>(shape.dims.begin(), shape.dims.begin() + shape.rank)};
    const std::int8_t* q = ws.act[cur].data();
    for (std::size_t i = 0; i < logits.size(); ++i) logits[i] = params.dequantize(q[i]);
    return logits;
}

std::vector<q_op_info> quantized_model::op_infos(std::vector<std::size_t> sample_shape) const {
    std::vector<q_op_info> infos;
    std::vector<std::size_t> shape = std::move(sample_shape);  // without batch dim
    for (const auto& op : ops_) {
        q_op_info info;
        std::visit(
            [&](const auto& concrete) {
                using T = std::decay_t<decltype(concrete)>;
                if constexpr (std::is_same_v<T, q_conv_op>) {
                    const std::size_t out_h = shape[0] + 2 * concrete.pad - concrete.kernel + 1;
                    const std::size_t out_w = shape[1] + 2 * concrete.pad - concrete.kernel + 1;
                    info.kind = op_kind::convolution;
                    info.macs = out_h * out_w * concrete.out_channels * concrete.kernel *
                                concrete.kernel * concrete.in_channels;
                    shape = {out_h, out_w, concrete.out_channels};
                } else if constexpr (std::is_same_v<T, q_dense_op>) {
                    info.kind = op_kind::dense;
                    info.macs = concrete.in_features * concrete.out_features;
                    shape = {concrete.out_features};
                } else if constexpr (std::is_same_v<T, q_pool_op>) {
                    info.kind = op_kind::pooling;
                    shape = {shape[0] / concrete.window, shape[1] / concrete.window, shape[2]};
                } else if constexpr (std::is_same_v<T, q_global_pool_op>) {
                    info.kind = op_kind::pooling;
                    shape = {1, 1, shape[2]};
                } else {
                    info.kind = op_kind::reshape;
                    std::size_t features = 1;
                    for (auto d : shape) features *= d;
                    shape = {features};
                }
            },
            op);
        infos.push_back(info);
    }
    return infos;
}

}  // namespace hawc
