#pragma once

// HAWC: the paper's Height-Aware Human Classifier. Noise-controlled
// up-sampling + height-aware projection + a lightweight CNN of three
// 3x3 conv layers (batch norm + ReLU) and two fully-connected layers,
// ~62k parameters at the default widths.

#include <memory>

#include "classifiers/classifier.hpp"
#include "features/pipeline.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "quant/calibrate.hpp"

namespace hawc {

struct hawc_config {
    cnn_feature_config features{};        // HAP over 324 points by default
    std::size_t conv_channels[3] = {16, 24, 32};
    std::size_t hidden_units = 98;        // tuned so the default is ~62k params
    train_config training{};
};

class hawc_model final : public human_classifier {
public:
    /// Builds the network; `pool` is the object-data pool for
    /// noise-controlled up-sampling.
    hawc_model(const hawc_config& config, object_pool pool, rng& random);

    /// Convert clusters to CNN inputs with this model's feature pipeline.
    labelled_dataset featurize(const cluster_dataset& data, rng& random) const;

    /// Train on clusters (featurized internally); per-epoch reports.
    std::vector<epoch_report> train(const cluster_dataset& train_set,
                                    const cluster_dataset* test_set, rng& random);

    eval_metrics evaluate(const cluster_dataset& data, rng& random);

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override { return "HAWC"; }

    sequential& network() { return network_; }
    const cnn_feature_extractor& extractor() const { return extractor_; }
    std::size_t parameter_count() const { return network_.parameter_count(); }

    /// Post-training int8 quantization using `calibration_count` random
    /// training clusters (the paper uses 100).
    quantized_model quantize(const cluster_dataset& calibration, rng& random,
                             std::size_t calibration_count = 100) const;

private:
    hawc_config config_;
    cnn_feature_extractor extractor_;
    mutable sequential network_;  // forward() mutates layer caches
};

}  // namespace hawc
