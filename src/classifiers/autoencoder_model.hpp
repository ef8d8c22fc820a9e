#pragma once

// AutoEncoder baseline (after Liou et al., as integrated in the paper's
// AutoEncoder-CC): hand-crafted slice features, standardized, fed to a
// three-layer encoder + bottleneck; a mirrored three-layer decoder
// pretrains the representation by reconstruction, then a classification
// output layer on the bottleneck is trained with cross entropy (the
// encoder fine-tunes jointly). Inference uses encoder + head only.

#include "classifiers/classifier.hpp"
#include "classifiers/feature_scaler.hpp"
#include "features/slice_features.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "quant/calibrate.hpp"

namespace hawc {

struct autoencoder_config {
    slice_feature_config features{};
    std::vector<std::size_t> encoder_units = {64, 48, 32};  // three-layer encoder
    std::size_t bottleneck = 16;
    std::size_t reconstruction_epochs = 20;
    train_config head_training{};  // cross-entropy phase
    adam_config adam{};
};

class autoencoder_model final : public human_classifier {
public:
    autoencoder_model(const autoencoder_config& config, rng& random);

    /// Slice-feature extraction + standardization. The scaler is fitted
    /// during train(); calling featurize before training throws.
    tensor featurize_cluster(const point_cloud& cluster) const;
    labelled_dataset featurize(const cluster_dataset& data) const;

    /// Two-phase training: reconstruction pretraining, then supervised
    /// head training. Returns the head-phase per-epoch reports.
    std::vector<epoch_report> train(const cluster_dataset& train_set,
                                    const cluster_dataset* test_set, rng& random);

    eval_metrics evaluate(const cluster_dataset& data);

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override { return "AutoEncoder"; }

    /// The encoder+head classification network (decoder excluded).
    sequential& network() { return classifier_; }
    std::size_t parameter_count() const;

    quantized_model quantize(const cluster_dataset& calibration, rng& random,
                             std::size_t calibration_count = 100) const;

    /// Grid-search encoder widths (KerasTuner-style, 16..128 per layer)
    /// by validation accuracy; returns the best config found.
    static autoencoder_config grid_search(const cluster_dataset& train_set,
                                          const cluster_dataset& validation_set, rng& random,
                                          const autoencoder_config& base = {});

private:
    autoencoder_config config_;
    feature_scaler scaler_;
    sequential classifier_;  // encoder layers + classification head
    sequential decoder_;     // reconstruction path from the bottleneck
    std::size_t encoder_layer_count_ = 0;  // prefix of classifier_ that is the encoder
};

}  // namespace hawc
