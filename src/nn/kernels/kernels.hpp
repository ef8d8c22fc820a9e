#pragma once

// Vectorized GEMM microkernel layer with runtime ISA dispatch. Every hot
// matrix product in the repo (fp32 im2col conv, fp32 dense, the int8
// inference path) funnels through the `kernel_ops` table selected once at
// startup: AVX2 on x86-64 when both the build and the CPU support it,
// NEON on aarch64, and a portable scalar fallback that is always
// registered. `HAWC_KERNEL_ISA` forces a tier by name for testing; an
// unavailable name throws instead of silently falling back, so a forced
// run always exercises what it claims to.
//
// Numeric contracts (pinned by tests/test_kernels.cpp):
//   int8  — int8*int8 -> int32 accumulation is exact integer arithmetic,
//           so every tier is bit-identical to the scalar reference for
//           any summation order. Worst case |a| * |w| * K = 255*128*K
//           stays far below INT32_MAX for any layer in these models.
//   fp32  — all tiers accumulate each output element over k ascending
//           with a separate multiply and add per term (no FMA
//           contraction; the kernels directory builds with
//           -ffp-contract=off), so results are bit-identical across
//           tiers and to the pre-kernel-layer scalar loops.
//
// Raw SIMD intrinsics are allowed only inside this directory — the
// `simd-outside-kernels` lint rule (scripts/lint.sh) enforces it.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"

namespace hawc::kernels {

/// Known instruction-set tiers, worst to best.
enum class isa_tier : std::uint8_t { scalar = 0, neon = 1, avx2 = 2 };

const char* isa_name(isa_tier tier);

/// Columns per packed-weight block. 8 int32 accumulators fill one AVX2
/// register exactly and two NEON registers; the scalar tier just loops.
inline constexpr std::size_t q_block = 8;

/// Packed int8 weights, prepared once at model load
/// (quantized_model::add_op) and shared by every tier. Layout, from a
/// row-major (k x n) weight matrix W:
///
///   - columns are grouped into blocks of q_block (the last block is
///     zero-padded up to q_block columns);
///   - within a block, k runs in pairs: each k-pair contributes
///     2*q_block int16 values, interleaved per column as
///     { W[2p][j], W[2p+1][j] } for j = 0..q_block-1 (odd k pads the
///     missing W[k][j] with zeros).
///
/// The pair interleave is exactly what AVX2's madd_epi16 consumes (one
/// 256-bit load per k-pair per block) and what NEON de-interleaves with
/// one vld2q_s16; weights widen to int16 at pack time so the inner loops
/// have no sign-extension work.
struct packed_qweights {
    std::size_t k = 0;  // logical rows (patch length / input features)
    std::size_t n = 0;  // logical columns (output channels)
    std::vector<std::int16_t> data;

    std::size_t k_pairs() const { return (k + 1) / 2; }
    std::size_t col_blocks() const { return (n + q_block - 1) / q_block; }
    std::size_t padded_n() const { return col_blocks() * q_block; }
};

packed_qweights pack_qweights(const std::int8_t* w, std::size_t k, std::size_t n);

/// Row stride the int8 kernels require for the activation matrix: k
/// rounded up to even, so a k-pair never straddles two rows. The pad
/// column multiplies a zero weight, so its value is mathematically
/// irrelevant — but callers zero it anyway (tidy buffers diff cleanly).
inline std::size_t q_row_stride(std::size_t k) { return k + (k % 2); }

/// acc (m_rows x w.padded_n(), row stride w.padded_n(), caller-initialised)
/// += a (m_rows x w.k int16, row stride a_stride) * W. a_stride must be
/// even and >= w.k.
using qgemm_fn = void (*)(const std::int16_t* a, std::size_t a_stride,
                          const packed_qweights& w, std::int32_t* acc,
                          std::size_t m_rows);

/// c (m_rows x n_cols, preloaded with the bias) += a (m_rows x k) *
/// w (k x n_cols), all row-major. Accumulation per output element runs
/// over k ascending, multiply then add — see the fp32 contract above.
using sgemm_fn = void (*)(const float* a, std::size_t k, const float* w,
                          std::size_t n_cols, float* c, std::size_t m_rows);

/// Fused requantization: collapse one row of int32 GEMM accumulators
/// back to int8, per element j in [0, n):
///
///   real   = float(acc[j]) * in_scale * weight_scales[j] + bias[j]
///            (that exact association — no FMA, no precomputed combined
///            scale; both change float rounding)
///   real   = 0 when fused_relu and real < 0
///   out[j] = quantize(real) under the contract of
///            quant_params::quantize (quant/q_types.hpp): NaN -> the
///            clamped zero-point code, +/-Inf -> the saturation
///            endpoints, else round(real / out_scale + out_zp) half away
///            from zero, saturated to [-128, 127].
///
/// The quant layer sits above nn, so the tiers replicate that contract
/// instead of calling it; tests/test_kernels.cpp pins every tier
/// bit-exact against quant_params::quantize itself.
using requant_fn = void (*)(const std::int32_t* acc, std::size_t n, float in_scale,
                            const float* weight_scales, const float* bias,
                            float out_scale, std::int32_t out_zp, bool fused_relu,
                            std::int8_t* out);

/// Input quantization: out[j] = quantize(x[j]) for j in [0, n) under
/// the contract of quant_params::quantize — the back half of requant_fn
/// above with real = x[j]: NaN -> the clamped zero-point code, +/-Inf ->
/// the saturation endpoints, else round(x / scale + zp) half away from
/// zero (a true division, never a reciprocal multiply), saturated to
/// [-128, 127]. tests/test_kernels.cpp pins every tier bit-exact against
/// quant_params::quantize.
using quantize_fn = void (*)(const float* x, std::size_t n, float scale, std::int32_t zp,
                             std::int8_t* out);

/// One dispatchable implementation tier.
struct kernel_ops {
    isa_tier tier = isa_tier::scalar;
    const char* name = "scalar";
    qgemm_fn qgemm = nullptr;
    sgemm_fn sgemm = nullptr;
    requant_fn requant = nullptr;
    quantize_fn quantize = nullptr;
};

/// Tiers compiled into this binary and supported by the running CPU,
/// best first. Never empty: scalar is always present (and always last).
const std::vector<const kernel_ops*>& registered_kernels();

/// Lookup by tier name ("avx2", "neon", "scalar"); nullptr when the tier
/// is not registered in this process.
const kernel_ops* find_kernels(std::string_view name);

/// The dispatched tier, chosen once on first call: the best registered
/// tier, unless HAWC_KERNEL_ISA names one explicitly ("auto" and the
/// empty string mean best-available; an unknown or unavailable name
/// throws invalid_argument_error).
const kernel_ops& active_kernels();

/// Test hook: force the dispatched tier (nullptr restores the normal
/// env/probe selection). Not thread-safe against concurrent kernel
/// callers — flip it between pipeline runs, like set_global_thread_count.
void set_active_kernels_for_testing(const kernel_ops* ops);

/// Export the dispatched tier as gauges: a labeled
/// `hawc_kernel_isa{isa="<name>"} 1` series plus the numeric
/// `hawc_kernel_isa_tier`, so fleet scrapes show what each pole runs.
void record_isa_gauges(telemetry::metrics_registry& reg);

/// Bit-exact scalar oracles for the parity suite: straightforward
/// row-major loops over the *unpacked* weights, independent of the packed
/// layout, so a packing bug cannot hide in both sides of a comparison.
namespace reference {

/// acc (m_rows x n, row stride acc_stride) += a (m_rows x k int16, row
/// stride a_stride) * w (k x n int8, row-major).
void qgemm(const std::int16_t* a, std::size_t a_stride, std::size_t k,
           const std::int8_t* w, std::size_t n, std::int32_t* acc,
           std::size_t acc_stride, std::size_t m_rows);

/// c (m_rows x n) += a (m_rows x k) * w (k x n), row-major, k ascending.
void sgemm(const float* a, std::size_t k, const float* w, std::size_t n,
           float* c, std::size_t m_rows);

}  // namespace reference

}  // namespace hawc::kernels
