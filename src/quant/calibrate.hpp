#pragma once

// Post-training quantization: converts a trained fp32 sequential model
// into a quantized_model. Mirrors the TFLite converter flow the paper
// uses: a calibration dataset (the paper uses 100 random training
// samples) determines activation ranges; batch-norm folds into the
// preceding conv/dense; ReLU fuses into the requantization clamp.

#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "quant/q_model.hpp"

namespace hawc {

/// Quantize `model` using activation ranges observed on the first 100
/// tensors of `calibration` (batch-1 tensors, run 16 at a time). Throws
/// invalid_argument_error if the architecture contains a layer the int8
/// backend does not support.
quantized_model quantize_model(sequential& model, const std::vector<tensor>& calibration);

/// Table-I-style metrics of a quantized classifier.
eval_metrics evaluate_quantized(const quantized_model& model, const labelled_dataset& data,
                                std::size_t batch_size = 64);

}  // namespace hawc
