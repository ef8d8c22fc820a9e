// Scalar fallback tier: portable loops over the same packed layout the
// SIMD tiers consume, always registered, forced via
// HAWC_KERNEL_ISA=scalar. The fp32 kernel keeps the 4-row register
// blocking the pre-kernel-layer gemm_rows used (each loaded W row feeds
// four accumulator rows); the int8 kernel walks the packed k-pair blocks
// exactly as madd_epi16 would, so its accumulation is the layout's
// ground truth.

#include "nn/kernels/kernels_impl.hpp"

namespace hawc::kernels {

namespace {

void qgemm_scalar(const std::int16_t* a, std::size_t a_stride, const packed_qweights& w,
                  std::int32_t* acc, std::size_t m_rows) {
    const std::size_t kp = w.k_pairs();
    const std::size_t blocks = w.col_blocks();
    const std::size_t pn = w.padded_n();
    for (std::size_t m = 0; m < m_rows; ++m) {
        const std::int16_t* am = a + m * a_stride;
        std::int32_t* cm = acc + m * pn;
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::int16_t* block = w.data.data() + b * kp * 2 * q_block;
            std::int32_t* cb = cm + b * q_block;
            for (std::size_t p = 0; p < kp; ++p) {
                const std::int32_t x0 = am[2 * p];
                const std::int32_t x1 = am[2 * p + 1];  // even-stride pad for odd k
                const std::int16_t* pair = block + p * 2 * q_block;
                for (std::size_t j = 0; j < q_block; ++j) {
                    cb[j] += x0 * pair[2 * j] + x1 * pair[2 * j + 1];
                }
            }
        }
    }
}

// C (m_rows x n_cols) += A (m_rows x K) * W (K x n_cols), row-major, C
// pre-initialised by the caller. Accumulation runs over k ascending per
// output element — the same (kh, kw, ic) order as a direct convolution,
// so results are bit-identical to the naive loop. Four A-rows are carried
// at once so each W row loaded from memory feeds four accumulator rows.
void sgemm_scalar(const float* __restrict__ a, std::size_t K, const float* __restrict__ w,
                  std::size_t n_cols, float* __restrict__ c, std::size_t m_rows) {
    std::size_t m = 0;
    for (; m + 4 <= m_rows; m += 4) {
        const float* __restrict__ a0 = a + (m + 0) * K;
        const float* __restrict__ a1 = a + (m + 1) * K;
        const float* __restrict__ a2 = a + (m + 2) * K;
        const float* __restrict__ a3 = a + (m + 3) * K;
        float* __restrict__ c0 = c + (m + 0) * n_cols;
        float* __restrict__ c1 = c + (m + 1) * n_cols;
        float* __restrict__ c2 = c + (m + 2) * n_cols;
        float* __restrict__ c3 = c + (m + 3) * n_cols;
        for (std::size_t k = 0; k < K; ++k) {
            const float* __restrict__ w_row = w + k * n_cols;
            const float x0 = a0[k];
            const float x1 = a1[k];
            const float x2 = a2[k];
            const float x3 = a3[k];
            for (std::size_t j = 0; j < n_cols; ++j) {
                const float wv = w_row[j];
                c0[j] += x0 * wv;
                c1[j] += x1 * wv;
                c2[j] += x2 * wv;
                c3[j] += x3 * wv;
            }
        }
    }
    for (; m < m_rows; ++m) {
        const float* __restrict__ am = a + m * K;
        float* __restrict__ cm = c + m * n_cols;
        for (std::size_t k = 0; k < K; ++k) {
            const float x = am[k];
            const float* __restrict__ w_row = w + k * n_cols;
            for (std::size_t j = 0; j < n_cols; ++j) cm[j] += x * w_row[j];
        }
    }
}

void requant_scalar(const std::int32_t* acc, std::size_t n, float in_scale,
                    const float* weight_scales, const float* bias, float out_scale,
                    std::int32_t out_zp, bool fused_relu, std::int8_t* out) {
    for (std::size_t j = 0; j < n; ++j) {
        out[j] = requant_one(acc[j], in_scale, weight_scales[j], bias[j], out_scale, out_zp,
                             fused_relu);
    }
}

}  // namespace

void quantize_scalar(const float* x, std::size_t n, float scale, std::int32_t zp,
                     std::int8_t* out) {
    for (std::size_t j = 0; j < n; ++j) out[j] = requant_cast(x[j], scale, zp);
}

const kernel_ops* scalar_kernels() {
    static const kernel_ops ops{isa_tier::scalar, "scalar",        &qgemm_scalar,
                                &sgemm_scalar,    &requant_scalar, &quantize_scalar};
    return &ops;
}

}  // namespace hawc::kernels
