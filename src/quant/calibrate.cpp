#include "quant/calibrate.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"

namespace hawc {

namespace {

// The paper calibrates on 100 random training samples.
constexpr std::size_t max_calibration_samples = 100;
constexpr std::size_t calibration_batch = 16;

/// Symmetric per-output-channel weight quantization. `channel_stride`
/// is the distance between consecutive output-channel entries (weights
/// are stored with Cout fastest for both conv and dense).
void quantize_weights(const tensor& weights, std::size_t out_channels,
                      std::vector<std::int8_t>& q_weights, std::vector<float>& scales) {
    const std::size_t rows = weights.size() / out_channels;
    scales.assign(out_channels, 1e-8f);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t oc = 0; oc < out_channels; ++oc) {
            scales[oc] = std::max(scales[oc], std::abs(weights[r * out_channels + oc]));
        }
    }
    for (auto& s : scales) s /= 127.0f;
    q_weights.resize(weights.size());
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t oc = 0; oc < out_channels; ++oc) {
            const float q = std::round(weights[r * out_channels + oc] / scales[oc]);
            q_weights[r * out_channels + oc] =
                static_cast<std::int8_t>(std::clamp(q, -127.0f, 127.0f));
        }
    }
}

/// Folded (weight-multiplier, bias) from an optional batch norm.
struct bn_fold {
    std::vector<float> weight_mul;  // per output channel
    std::vector<float> bias_add;    // per output channel (applied after mul)
};

bn_fold fold_batch_norm(const batch_norm* bn, std::size_t channels) {
    bn_fold fold;
    fold.weight_mul.assign(channels, 1.0f);
    fold.bias_add.assign(channels, 0.0f);
    if (bn == nullptr) return fold;
    HAWC_REQUIRE(bn->channels() == channels, "batch norm width mismatch while folding");
    for (std::size_t c = 0; c < channels; ++c) {
        const float inv_std = 1.0f / std::sqrt(bn->running_var()[c] + 1e-5f);
        fold.weight_mul[c] = bn->gamma().value[c] * inv_std;
        fold.bias_add[c] = bn->beta().value[c] - bn->running_mean()[c] * fold.weight_mul[c];
    }
    return fold;
}

tensor apply_fold_conv(const conv2d& conv, const bn_fold& fold) {
    tensor folded = conv.weights().value;
    const std::size_t out_channels = conv.out_channels();
    const std::size_t rows = folded.size() / out_channels;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t oc = 0; oc < out_channels; ++oc) {
            folded[r * out_channels + oc] *= fold.weight_mul[oc];
        }
    }
    return folded;
}

}  // namespace

quantized_model quantize_model(sequential& model, const std::vector<tensor>& calibration) {
    HAWC_REQUIRE(!calibration.empty(), "calibration set must be non-empty");

    // --- Pass 1: observe activation ranges layer by layer. ---
    const std::size_t samples = std::min(calibration.size(), max_calibration_samples);
    range_observer input_observer;
    std::vector<range_observer> observers(model.layer_count());

    for (std::size_t begin = 0; begin < samples; begin += calibration_batch) {
        const std::size_t end = std::min(begin + calibration_batch, samples);
        std::vector<tensor> chunk(calibration.begin() + static_cast<std::ptrdiff_t>(begin),
                                  calibration.begin() + static_cast<std::ptrdiff_t>(end));
        tensor x = tensor::stack(chunk);
        input_observer.observe(x);
        for (std::size_t li = 0; li < model.layer_count(); ++li) {
            x = model.layer_at(li).forward(x, /*training=*/false);
            observers[li].observe(x);
        }
    }

    // --- Pass 2: build quantized ops with BN folding and ReLU fusion. ---
    quantized_model q;
    q.set_input_params(input_observer.params());
    quant_params current = q.input_params();

    std::size_t li = 0;
    while (li < model.layer_count()) {
        layer& l = model.layer_at(li);

        if (auto* conv = dynamic_cast<conv2d*>(&l)) {
            std::size_t group_end = li;
            const batch_norm* bn = nullptr;
            bool relu_fused = false;
            if (group_end + 1 < model.layer_count()) {
                bn = dynamic_cast<batch_norm*>(&model.layer_at(group_end + 1));
                if (bn != nullptr) ++group_end;
            }
            if (group_end + 1 < model.layer_count() &&
                dynamic_cast<relu*>(&model.layer_at(group_end + 1)) != nullptr) {
                relu_fused = true;
                ++group_end;
            }

            const bn_fold fold = fold_batch_norm(bn, conv->out_channels());
            const tensor folded = apply_fold_conv(*conv, fold);

            q_conv_op op;
            op.kernel = conv->kernel();
            op.in_channels = conv->in_channels();
            op.out_channels = conv->out_channels();
            op.pad = conv->pad() == padding::same ? conv->kernel() / 2 : 0;
            quantize_weights(folded, op.out_channels, op.weights, op.weight_scales);
            op.bias.resize(op.out_channels);
            for (std::size_t oc = 0; oc < op.out_channels; ++oc) {
                op.bias[oc] =
                    conv->bias().value[oc] * fold.weight_mul[oc] + fold.bias_add[oc];
            }
            op.in_q = current;
            op.out_q = observers[group_end].params();
            op.fused_relu = relu_fused;
            current = op.out_q;
            q.add_op(std::move(op));
            li = group_end + 1;
            continue;
        }

        if (auto* fc = dynamic_cast<dense*>(&l)) {
            std::size_t group_end = li;
            const batch_norm* bn = nullptr;
            bool relu_fused = false;
            if (group_end + 1 < model.layer_count()) {
                bn = dynamic_cast<batch_norm*>(&model.layer_at(group_end + 1));
                if (bn != nullptr) ++group_end;
            }
            if (group_end + 1 < model.layer_count() &&
                dynamic_cast<relu*>(&model.layer_at(group_end + 1)) != nullptr) {
                relu_fused = true;
                ++group_end;
            }

            const bn_fold fold = fold_batch_norm(bn, fc->out_features());
            tensor folded = fc->weights().value;
            for (std::size_t i = 0; i < fc->in_features(); ++i) {
                for (std::size_t o = 0; o < fc->out_features(); ++o) {
                    folded[i * fc->out_features() + o] *= fold.weight_mul[o];
                }
            }

            q_dense_op op;
            op.in_features = fc->in_features();
            op.out_features = fc->out_features();
            quantize_weights(folded, op.out_features, op.weights, op.weight_scales);
            op.bias.resize(op.out_features);
            for (std::size_t o = 0; o < op.out_features; ++o) {
                op.bias[o] = fc->bias().value[o] * fold.weight_mul[o] + fold.bias_add[o];
            }
            op.in_q = current;
            op.out_q = observers[group_end].params();
            op.fused_relu = relu_fused;
            current = op.out_q;
            q.add_op(std::move(op));
            li = group_end + 1;
            continue;
        }

        if (auto* pool = dynamic_cast<max_pool2d*>(&l)) {
            q.add_op(q_pool_op{pool->window()});
            ++li;
            continue;
        }

        if (dynamic_cast<global_max_pool*>(&l) != nullptr) {
            q.add_op(q_global_pool_op{});
            ++li;
            continue;
        }

        if (dynamic_cast<flatten*>(&l) != nullptr) {
            q.add_op(q_flatten_op{});
            ++li;
            continue;
        }

        // Standalone ReLU (not preceded by conv/dense): clamp only. Fold
        // into the running params by observing that requantization with
        // the next op's in_q handles it; reject other layers.
        throw invalid_argument_error{"unsupported layer for int8 conversion: " + l.info().name};
    }
    return q;
}

eval_metrics evaluate_quantized(const quantized_model& model, const labelled_dataset& data,
                                std::size_t batch_size) {
    HAWC_REQUIRE(data.size() > 0, "cannot evaluate on an empty dataset");
    eval_metrics m;
    for (std::size_t begin = 0; begin < data.size(); begin += batch_size) {
        const std::size_t end = std::min(begin + batch_size, data.size());
        std::vector<tensor> chunk(data.samples.begin() + static_cast<std::ptrdiff_t>(begin),
                                  data.samples.begin() + static_cast<std::ptrdiff_t>(end));
        const tensor logits = model.forward(tensor::stack(chunk));
        for (std::size_t n = 0; n < logits.dim(0); ++n) {
            std::size_t argmax = 0;
            for (std::size_t k = 1; k < logits.dim(1); ++k) {
                if (logits.at(n, k) > logits.at(n, argmax)) argmax = k;
            }
            const bool predicted_positive = argmax == 1;
            const bool actually_positive = data.labels[begin + n] == 1;
            if (predicted_positive && actually_positive) ++m.true_positive;
            if (predicted_positive && !actually_positive) ++m.false_positive;
            if (!predicted_positive && actually_positive) ++m.false_negative;
            if (!predicted_positive && !actually_positive) ++m.true_negative;
        }
    }
    const double total = static_cast<double>(data.size());
    m.accuracy = static_cast<double>(m.true_positive + m.true_negative) / total;
    const double tp = static_cast<double>(m.true_positive);
    const double fp = static_cast<double>(m.false_positive);
    const double fn = static_cast<double>(m.false_negative);
    m.precision = tp + fp > 0.0 ? tp / (tp + fp) : 0.0;
    m.recall = tp + fn > 0.0 ? tp / (tp + fn) : 0.0;
    m.f1 = m.precision + m.recall > 0.0 ? 2.0 * m.precision * m.recall / (m.precision + m.recall)
                                        : 0.0;
    return m;
}

}  // namespace hawc
