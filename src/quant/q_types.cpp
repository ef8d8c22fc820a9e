#include "quant/q_types.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.hpp"

namespace hawc {

quant_params quant_params::from_range(float lo, float hi) {
    // Non-finite bounds (a caller bypassing range_observer's filtering)
    // would make scale/zero_point NaN; collapse them to the zero-only
    // range instead so the parameters stay usable.
    if (!std::isfinite(lo)) lo = 0.0f;
    if (!std::isfinite(hi)) hi = 0.0f;
    // Always include zero so that zero padding / ReLU cutoffs are exact,
    // as TFLite requires.
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    quant_params p;
    const float span = hi - lo;
    p.scale = span > 0.0f ? span / 255.0f : 1.0f;
    const float zp = -128.0f - lo / p.scale;
    p.zero_point = static_cast<std::int32_t>(std::lround(std::clamp(zp, -128.0f, 127.0f)));
    return p;
}

q_tensor quantize_tensor(const tensor& real, const quant_params& params) {
    q_tensor out;
    out.shape = real.shape();
    out.params = params;
    out.data.resize(real.size());
    // The dispatched tier replicates params.quantize bit for bit
    // (tests/test_kernels.cpp pins it); quantized_model::forward calls
    // the same op, so there is one input-rounding implementation.
    kernels::active_kernels().quantize(real.data(), real.size(), params.scale,
                                       params.zero_point, out.data.data());
    return out;
}

tensor dequantize_tensor(const q_tensor& quantized) {
    tensor out{quantized.shape};
    for (std::size_t i = 0; i < quantized.size(); ++i) {
        out[i] = quantized.params.dequantize(quantized.data[i]);
    }
    return out;
}

void range_observer::observe(const tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
        const float v = t[i];
        // One NaN in a calibration tensor would poison lo/hi (min/max of a
        // NaN is NaN) and with it every scale/zero_point derived from this
        // observer; an Inf would flush the scale to Inf the same way.
        if (!std::isfinite(v)) continue;
        if (!seen) {
            lo = hi = v;
            seen = true;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
    }
}

quant_params range_observer::params() const { return quant_params::from_range(lo, hi); }

}  // namespace hawc
