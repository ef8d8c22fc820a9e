// NEON tier (aarch64, where NEON is baseline — no extra compile flags;
// 32-bit ARM lacks the A64 vdivq_f32/vrndaq_f32 this tier uses and falls
// back to scalar). One vld2q_s16 de-interleaves a packed k-pair block
// into the k0 and k1 column vectors; vmlal_s16 widens int16 products
// straight into int32 accumulators, so the math is exact and
// bit-identical to the scalar reference. fp32 vectorizes columns 4-wide
// with explicit vmulq/vaddq (never vfmaq) per the cross-tier rounding
// contract in kernels.hpp; the kernels directory builds with
// -ffp-contract=off so the scalar remainders cannot be fused behind our
// back either.

#include "nn/kernels/kernels_impl.hpp"

#if defined(__aarch64__) && (defined(__ARM_NEON) || defined(__ARM_NEON__))

#include <arm_neon.h>

namespace hawc::kernels {

namespace {

void qgemm_neon(const std::int16_t* a, std::size_t a_stride, const packed_qweights& w,
                std::int32_t* acc, std::size_t m_rows) {
    const std::size_t kp = w.k_pairs();
    const std::size_t blocks = w.col_blocks();
    const std::size_t pn = w.padded_n();
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::int16_t* block = w.data.data() + b * kp * 2 * q_block;
        std::size_t m = 0;
        for (; m + 2 <= m_rows; m += 2) {
            const std::int16_t* a0 = a + (m + 0) * a_stride;
            const std::int16_t* a1 = a + (m + 1) * a_stride;
            int32x4_t c0_lo = vdupq_n_s32(0);
            int32x4_t c0_hi = vdupq_n_s32(0);
            int32x4_t c1_lo = vdupq_n_s32(0);
            int32x4_t c1_hi = vdupq_n_s32(0);
            for (std::size_t p = 0; p < kp; ++p) {
                // wk.val[0] = W[2p][j0..7], wk.val[1] = W[2p+1][j0..7]
                const int16x8x2_t wk = vld2q_s16(block + p * 2 * q_block);
                const int16x4_t x00 = vdup_n_s16(a0[2 * p]);
                const int16x4_t x01 = vdup_n_s16(a0[2 * p + 1]);
                const int16x4_t x10 = vdup_n_s16(a1[2 * p]);
                const int16x4_t x11 = vdup_n_s16(a1[2 * p + 1]);
                c0_lo = vmlal_s16(c0_lo, vget_low_s16(wk.val[0]), x00);
                c0_lo = vmlal_s16(c0_lo, vget_low_s16(wk.val[1]), x01);
                c0_hi = vmlal_s16(c0_hi, vget_high_s16(wk.val[0]), x00);
                c0_hi = vmlal_s16(c0_hi, vget_high_s16(wk.val[1]), x01);
                c1_lo = vmlal_s16(c1_lo, vget_low_s16(wk.val[0]), x10);
                c1_lo = vmlal_s16(c1_lo, vget_low_s16(wk.val[1]), x11);
                c1_hi = vmlal_s16(c1_hi, vget_high_s16(wk.val[0]), x10);
                c1_hi = vmlal_s16(c1_hi, vget_high_s16(wk.val[1]), x11);
            }
            std::int32_t* o0 = acc + (m + 0) * pn + b * q_block;
            std::int32_t* o1 = acc + (m + 1) * pn + b * q_block;
            vst1q_s32(o0, vaddq_s32(vld1q_s32(o0), c0_lo));
            vst1q_s32(o0 + 4, vaddq_s32(vld1q_s32(o0 + 4), c0_hi));
            vst1q_s32(o1, vaddq_s32(vld1q_s32(o1), c1_lo));
            vst1q_s32(o1 + 4, vaddq_s32(vld1q_s32(o1 + 4), c1_hi));
        }
        for (; m < m_rows; ++m) {
            const std::int16_t* am = a + m * a_stride;
            int32x4_t c_lo = vdupq_n_s32(0);
            int32x4_t c_hi = vdupq_n_s32(0);
            for (std::size_t p = 0; p < kp; ++p) {
                const int16x8x2_t wk = vld2q_s16(block + p * 2 * q_block);
                const int16x4_t x0 = vdup_n_s16(am[2 * p]);
                const int16x4_t x1 = vdup_n_s16(am[2 * p + 1]);
                c_lo = vmlal_s16(c_lo, vget_low_s16(wk.val[0]), x0);
                c_lo = vmlal_s16(c_lo, vget_low_s16(wk.val[1]), x1);
                c_hi = vmlal_s16(c_hi, vget_high_s16(wk.val[0]), x0);
                c_hi = vmlal_s16(c_hi, vget_high_s16(wk.val[1]), x1);
            }
            std::int32_t* out = acc + m * pn + b * q_block;
            vst1q_s32(out, vaddq_s32(vld1q_s32(out), c_lo));
            vst1q_s32(out + 4, vaddq_s32(vld1q_s32(out + 4), c_hi));
        }
    }
}

void sgemm_neon(const float* a, std::size_t K, const float* w, std::size_t n_cols, float* c,
                std::size_t m_rows) {
    std::size_t m = 0;
    for (; m + 4 <= m_rows; m += 4) {
        const float* a0 = a + (m + 0) * K;
        const float* a1 = a + (m + 1) * K;
        const float* a2 = a + (m + 2) * K;
        const float* a3 = a + (m + 3) * K;
        float* c0 = c + (m + 0) * n_cols;
        float* c1 = c + (m + 1) * n_cols;
        float* c2 = c + (m + 2) * n_cols;
        float* c3 = c + (m + 3) * n_cols;
        std::size_t j = 0;
        for (; j + 4 <= n_cols; j += 4) {
            float32x4_t s0 = vld1q_f32(c0 + j);
            float32x4_t s1 = vld1q_f32(c1 + j);
            float32x4_t s2 = vld1q_f32(c2 + j);
            float32x4_t s3 = vld1q_f32(c3 + j);
            for (std::size_t k = 0; k < K; ++k) {
                const float32x4_t wv = vld1q_f32(w + k * n_cols + j);
                s0 = vaddq_f32(s0, vmulq_n_f32(wv, a0[k]));
                s1 = vaddq_f32(s1, vmulq_n_f32(wv, a1[k]));
                s2 = vaddq_f32(s2, vmulq_n_f32(wv, a2[k]));
                s3 = vaddq_f32(s3, vmulq_n_f32(wv, a3[k]));
            }
            vst1q_f32(c0 + j, s0);
            vst1q_f32(c1 + j, s1);
            vst1q_f32(c2 + j, s2);
            vst1q_f32(c3 + j, s3);
        }
        for (; j < n_cols; ++j) {
            float s0 = c0[j];
            float s1 = c1[j];
            float s2 = c2[j];
            float s3 = c3[j];
            for (std::size_t k = 0; k < K; ++k) {
                const float wv = w[k * n_cols + j];
                s0 += a0[k] * wv;
                s1 += a1[k] * wv;
                s2 += a2[k] * wv;
                s3 += a3[k] * wv;
            }
            c0[j] = s0;
            c1[j] = s1;
            c2[j] = s2;
            c3[j] = s3;
        }
    }
    for (; m < m_rows; ++m) {
        const float* am = a + m * K;
        float* cm = c + m * n_cols;
        std::size_t j = 0;
        for (; j + 4 <= n_cols; j += 4) {
            float32x4_t s = vld1q_f32(cm + j);
            for (std::size_t k = 0; k < K; ++k) {
                s = vaddq_f32(s, vmulq_n_f32(vld1q_f32(w + k * n_cols + j), am[k]));
            }
            vst1q_f32(cm + j, s);
        }
        for (; j < n_cols; ++j) {
            float s = cm[j];
            for (std::size_t k = 0; k < K; ++k) s += am[k] * w[k * n_cols + j];
            cm[j] = s;
        }
    }
}

void requant_neon(const std::int32_t* acc, std::size_t n, float in_scale,
                  const float* weight_scales, const float* bias, float out_scale,
                  std::int32_t out_zp, bool fused_relu, std::int8_t* out) {
    const float32x4_t vscale = vdupq_n_f32(out_scale);
    const float32x4_t vzp = vdupq_n_f32(static_cast<float>(out_zp));
    const float32x4_t vzero = vdupq_n_f32(0.0f);
    const float32x4_t vhi = vdupq_n_f32(127.0f);
    const float32x4_t vlo = vdupq_n_f32(-128.0f);
    const uint32x4_t relu_on = vdupq_n_u32(fused_relu ? ~0u : 0u);
    const int32x4_t nan_code = vdupq_n_s32(std::clamp(out_zp, -128, 127));
    // One 4-lane column group: the contract's exact association (mul,
    // mul, add — vfmaq is banned), branchless ReLU, A64 frinta
    // (vrndaq_f32) which *is* round-half-away-from-zero, then a
    // saturating clamp. NEON min/max propagate NaN, vcvtq maps NaN to 0 —
    // either way the unordered blend overrides NaN lanes with the
    // zero-point code, matching requant_cast.
    const auto lane4 = [&](std::size_t j) -> int32x4_t {
        const float32x4_t a = vcvtq_f32_s32(vld1q_s32(acc + j));
        float32x4_t real = vaddq_f32(
            vmulq_f32(vmulq_n_f32(a, in_scale), vld1q_f32(weight_scales + j)),
            vld1q_f32(bias + j));
        const uint32x4_t neg = vandq_u32(vcltq_f32(real, vzero), relu_on);
        real = vbslq_f32(neg, vzero, real);
        const float32x4_t r = vrndaq_f32(vaddq_f32(vdivq_f32(real, vscale), vzp));
        const float32x4_t clamped = vmaxq_f32(vminq_f32(r, vhi), vlo);
        int32x4_t q = vcvtq_s32_f32(clamped);
        const uint32x4_t is_nan = vmvnq_u32(vceqq_f32(real, real));
        return vbslq_s32(is_nan, nan_code, q);
    };
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const int16x8_t w16 = vcombine_s16(vqmovn_s32(lane4(j)), vqmovn_s32(lane4(j + 4)));
        vst1_s8(out + j, vqmovn_s16(w16));  // values in [-128,127]: packs exact
    }
    for (; j < n; ++j) {
        out[j] = requant_one(acc[j], in_scale, weight_scales[j], bias[j], out_scale, out_zp,
                             fused_relu);
    }
}

}  // namespace

const kernel_ops* neon_kernels() {
    static const kernel_ops ops{isa_tier::neon, "neon",       &qgemm_neon,
                                &sgemm_neon,    &requant_neon, &quantize_scalar};
    return &ops;
}

}  // namespace hawc::kernels

#else  // !__ARM_NEON

namespace hawc::kernels {

const kernel_ops* neon_kernels() { return nullptr; }

}  // namespace hawc::kernels

#endif
