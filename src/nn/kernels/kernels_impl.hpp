#pragma once

// Internal seam between the dispatcher and the per-ISA translation units.
// Each tier TU defines its factory to return a static kernel_ops table
// when the tier is compiled in AND usable on the running CPU, nullptr
// otherwise (the scalar factory never returns nullptr).

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.hpp"

namespace hawc::kernels {

const kernel_ops* scalar_kernels();
const kernel_ops* avx2_kernels();
const kernel_ops* neon_kernels();

/// The float -> int8 half of the requant contract (see requant_fn in
/// kernels.hpp), shared by the scalar tier and the SIMD tiers' remainder
/// lanes. Mirrors quant_params::quantize line for line — the quant layer
/// sits above nn, so this is a pinned replica, not a call.
inline std::int8_t requant_cast(float real, float out_scale, std::int32_t out_zp) {
    if (!std::isfinite(real)) {
        if (std::isnan(real)) {
            return static_cast<std::int8_t>(std::clamp(out_zp, -128, 127));
        }
        return real > 0.0f ? std::int8_t{127} : std::int8_t{-128};
    }
    const float rounded = std::round(real / out_scale + static_cast<float>(out_zp));
    return static_cast<std::int8_t>(std::clamp(rounded, -128.0f, 127.0f));
}

/// The scalar tier's quantize kernel (requant_cast per element). The
/// NEON tier registers it too; there is no NEON quantize kernel yet.
void quantize_scalar(const float* x, std::size_t n, float scale, std::int32_t zp,
                     std::int8_t* out);

/// One element of the requant contract including the scale/bias/ReLU
/// front half; the tails of every tier funnel through this.
inline std::int8_t requant_one(std::int32_t acc, float in_scale, float weight_scale,
                               float bias, float out_scale, std::int32_t out_zp,
                               bool fused_relu) {
    float real = static_cast<float>(acc) * in_scale * weight_scale + bias;
    if (fused_relu && real < 0.0f) real = 0.0f;
    return requant_cast(real, out_scale, out_zp);
}

}  // namespace hawc::kernels
