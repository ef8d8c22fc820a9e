// AVX2 tier. Compiled with -mavx2 -ffp-contract=off (see
// src/CMakeLists.txt) only where the toolchain supports it; everything
// here is additionally gated on __AVX2__ so an un-flagged build still
// compiles this TU to the nullptr factory. Registration further requires
// a runtime cpuid probe, so the binary stays safe on pre-AVX2 hardware.
//
// int8: one 256-bit load per packed k-pair block feeds madd_epi16 —
// 16 int16 products and 8 pairwise int32 adds per instruction — with the
// activation k-pair broadcast as a 32-bit lane. Exact integer math, so
// any blocking is bit-identical to the scalar reference.
//
// fp32: columns vectorize 8-wide with an explicit multiply then add per
// k (never fmadd), keeping per-element rounding identical to the scalar
// tier; see the contract in kernels.hpp.

#include "nn/kernels/kernels_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace hawc::kernels {

namespace {

/// The activation k-pair {a[2p], a[2p+1]} as the 32-bit lane madd_epi16
/// pairs against the packed weights (little-endian: a[2p] low).
inline std::int32_t load_pair(const std::int16_t* p) {
    std::int32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline __m256i load_block(const std::int16_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

void qgemm_avx2(const std::int16_t* a, std::size_t a_stride, const packed_qweights& w,
                std::int32_t* acc, std::size_t m_rows) {
    const std::size_t kp = w.k_pairs();
    const std::size_t blocks = w.col_blocks();
    const std::size_t pn = w.padded_n();
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::int16_t* block = w.data.data() + b * kp * 2 * q_block;
        std::size_t m = 0;
        for (; m + 4 <= m_rows; m += 4) {
            const std::int16_t* a0 = a + (m + 0) * a_stride;
            const std::int16_t* a1 = a + (m + 1) * a_stride;
            const std::int16_t* a2 = a + (m + 2) * a_stride;
            const std::int16_t* a3 = a + (m + 3) * a_stride;
            __m256i c0 = _mm256_setzero_si256();
            __m256i c1 = _mm256_setzero_si256();
            __m256i c2 = _mm256_setzero_si256();
            __m256i c3 = _mm256_setzero_si256();
            for (std::size_t p = 0; p < kp; ++p) {
                const __m256i wv = load_block(block + p * 2 * q_block);
                c0 = _mm256_add_epi32(
                    c0, _mm256_madd_epi16(_mm256_set1_epi32(load_pair(a0 + 2 * p)), wv));
                c1 = _mm256_add_epi32(
                    c1, _mm256_madd_epi16(_mm256_set1_epi32(load_pair(a1 + 2 * p)), wv));
                c2 = _mm256_add_epi32(
                    c2, _mm256_madd_epi16(_mm256_set1_epi32(load_pair(a2 + 2 * p)), wv));
                c3 = _mm256_add_epi32(
                    c3, _mm256_madd_epi16(_mm256_set1_epi32(load_pair(a3 + 2 * p)), wv));
            }
            for (std::size_t r = 0; r < 4; ++r) {
                std::int32_t* out = acc + (m + r) * pn + b * q_block;
                __m256i* dst = reinterpret_cast<__m256i*>(out);
                const __m256i sum = r == 0 ? c0 : r == 1 ? c1 : r == 2 ? c2 : c3;
                _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), sum));
            }
        }
        for (; m < m_rows; ++m) {
            const std::int16_t* am = a + m * a_stride;
            __m256i cm = _mm256_setzero_si256();
            for (std::size_t p = 0; p < kp; ++p) {
                const __m256i wv = load_block(block + p * 2 * q_block);
                cm = _mm256_add_epi32(
                    cm, _mm256_madd_epi16(_mm256_set1_epi32(load_pair(am + 2 * p)), wv));
            }
            std::int32_t* out = acc + m * pn + b * q_block;
            __m256i* dst = reinterpret_cast<__m256i*>(out);
            _mm256_storeu_si256(dst, _mm256_add_epi32(_mm256_loadu_si256(dst), cm));
        }
    }
}

void sgemm_avx2(const float* a, std::size_t K, const float* w, std::size_t n_cols,
                float* c, std::size_t m_rows) {
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
        for (; j + 8 <= n_cols; j += 8) {
            __m256 s0 = _mm256_loadu_ps(c0 + j);
            __m256 s1 = _mm256_loadu_ps(c1 + j);
            __m256 s2 = _mm256_loadu_ps(c2 + j);
            __m256 s3 = _mm256_loadu_ps(c3 + j);
            for (std::size_t k = 0; k < K; ++k) {
                const __m256 wv = _mm256_loadu_ps(w + k * n_cols + j);
                s0 = _mm256_add_ps(s0, _mm256_mul_ps(_mm256_set1_ps(a0[k]), wv));
                s1 = _mm256_add_ps(s1, _mm256_mul_ps(_mm256_set1_ps(a1[k]), wv));
                s2 = _mm256_add_ps(s2, _mm256_mul_ps(_mm256_set1_ps(a2[k]), wv));
                s3 = _mm256_add_ps(s3, _mm256_mul_ps(_mm256_set1_ps(a3[k]), wv));
            }
            _mm256_storeu_ps(c0 + j, s0);
            _mm256_storeu_ps(c1 + j, s1);
            _mm256_storeu_ps(c2 + j, s2);
            _mm256_storeu_ps(c3 + j, s3);
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
        for (; j + 8 <= n_cols; j += 8) {
            __m256 s = _mm256_loadu_ps(cm + j);
            for (std::size_t k = 0; k < K; ++k) {
                s = _mm256_add_ps(
                    s, _mm256_mul_ps(_mm256_set1_ps(am[k]), _mm256_loadu_ps(w + k * n_cols + j)));
            }
            _mm256_storeu_ps(cm + j, s);
        }
        for (; j < n_cols; ++j) {
            float s = cm[j];
            for (std::size_t k = 0; k < K; ++k) s += am[k] * w[k * n_cols + j];
            cm[j] = s;
        }
    }
}

/// round() — half away from zero — has no direct AVX2 rounding mode
/// (_mm256_round_ps only offers nearest-even / down / up / truncate), so
/// emulate it exactly: t = trunc(x), frac = x - t (exact — the
/// fractional part of a float is always representable and the subtract
/// is lossless), bump t by copysign(1, x) when |frac| >= 0.5. Integral
/// and huge (|x| >= 2^23) inputs have frac == 0 and pass through;
/// Inf yields frac = NaN, the compare stays false, and Inf passes
/// through to the saturating clamp. Matches std::round bit for bit on
/// every finite input.
inline __m256 round_half_away(__m256 x) {
    const __m256 t = _mm256_round_ps(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    const __m256 sign_bit = _mm256_set1_ps(-0.0f);
    const __m256 frac_abs = _mm256_andnot_ps(sign_bit, _mm256_sub_ps(x, t));
    const __m256 bump = _mm256_cmp_ps(frac_abs, _mm256_set1_ps(0.5f), _CMP_GE_OQ);
    const __m256 one = _mm256_or_ps(_mm256_set1_ps(1.0f), _mm256_and_ps(x, sign_bit));
    return _mm256_add_ps(t, _mm256_and_ps(bump, one));
}

/// The float -> int8 back half of the requant contract (requant_cast)
/// on 8 lanes, shared by requant_avx2 and quantize_avx2: divide by the
/// output scale (a true division, as the scalar contract does), add the
/// zero point, round half away from zero, saturate, override NaN lanes
/// with the zero-point code, and store 8 int8 codes to `out`.
struct quantize_lanes {
    __m256 scale;
    __m256 zp;
    __m256i nan_code;

    quantize_lanes(float out_scale, std::int32_t out_zp)
        : scale{_mm256_set1_ps(out_scale)},
          zp{_mm256_set1_ps(static_cast<float>(out_zp))},
          nan_code{_mm256_set1_epi32(std::clamp(out_zp, -128, 127))} {}

    void store(__m256 real, std::int8_t* out) const {
        const __m256 r = round_half_away(_mm256_add_ps(_mm256_div_ps(real, scale), zp));
        // max(min(r, 127), -128): minps/maxps pass their second operand
        // through on NaN, so NaN lanes land on an arbitrary in-range
        // value here — the unordered-compare blend below overrides them
        // with the zero-point code, matching requant_cast.
        const __m256 clamped =
            _mm256_max_ps(_mm256_min_ps(r, _mm256_set1_ps(127.0f)), _mm256_set1_ps(-128.0f));
        __m256i q = _mm256_cvttps_epi32(clamped);  // integral already; trunc is exact
        const __m256i is_nan = _mm256_castps_si256(_mm256_cmp_ps(real, real, _CMP_UNORD_Q));
        q = _mm256_blendv_epi8(q, nan_code, is_nan);
        // Narrow 8 x int32 -> 8 x int8; values are in [-128, 127] so the
        // saturating packs are exact.
        const __m128i w16 =
            _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1));
        const __m128i b8 = _mm_packs_epi16(w16, w16);
        _mm_storel_epi64(reinterpret_cast<__m128i*>(out), b8);
    }
};

void requant_avx2(const std::int32_t* acc, std::size_t n, float in_scale,
                  const float* weight_scales, const float* bias, float out_scale,
                  std::int32_t out_zp, bool fused_relu, std::int8_t* out) {
    const __m256 vin = _mm256_set1_ps(in_scale);
    const __m256 vzero = _mm256_setzero_ps();
    // Lane-wide ReLU switch: AND the real<0 mask with all-ones/all-zero
    // instead of branching per lane.
    const __m256 relu_on = _mm256_castsi256_ps(_mm256_set1_epi32(fused_relu ? -1 : 0));
    const quantize_lanes lanes{out_scale, out_zp};
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 a =
            _mm256_cvtepi32_ps(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j)));
        // (float(acc) * in_scale) * weight_scale + bias — the contract's
        // exact association, explicit mul then add (never fmadd).
        __m256 real = _mm256_add_ps(
            _mm256_mul_ps(_mm256_mul_ps(a, vin), _mm256_loadu_ps(weight_scales + j)),
            _mm256_loadu_ps(bias + j));
        const __m256 neg = _mm256_and_ps(_mm256_cmp_ps(real, vzero, _CMP_LT_OQ), relu_on);
        real = _mm256_blendv_ps(real, vzero, neg);
        lanes.store(real, out + j);
    }
    for (; j < n; ++j) {
        out[j] = requant_one(acc[j], in_scale, weight_scales[j], bias[j], out_scale, out_zp,
                             fused_relu);
    }
}

void quantize_avx2(const float* x, std::size_t n, float scale, std::int32_t zp,
                   std::int8_t* out) {
    const quantize_lanes lanes{scale, zp};
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) lanes.store(_mm256_loadu_ps(x + j), out + j);
    for (; j < n; ++j) out[j] = requant_cast(x[j], scale, zp);
}

}  // namespace

const kernel_ops* avx2_kernels() {
    static const bool cpu_ok = __builtin_cpu_supports("avx2") != 0;
    if (!cpu_ok) return nullptr;
    static const kernel_ops ops{isa_tier::avx2, "avx2",       &qgemm_avx2,
                                &sgemm_avx2,    &requant_avx2, &quantize_avx2};
    return &ops;
}

}  // namespace hawc::kernels

#else  // !__AVX2__

namespace hawc::kernels {

const kernel_ops* avx2_kernels() { return nullptr; }

}  // namespace hawc::kernels

#endif
