#pragma once

// PointNet baseline (Qi et al.): per-point shared MLPs (1x1 convolutions
// over a P x 1 grid), a global max-pool for permutation invariance, and a
// fully-connected head. Like PointNet-CC in the paper, it reuses the
// noise-controlled up-sampling to satisfy its fixed-size input.
//
// Two presets: `scaled()` (default) is a width-reduced variant that is
// trainable on a laptop-class CPU; `paper_scale()` matches the original
// ~748k-parameter architecture and is used for op counting and latency
// measurement (its weights do not need training for either).

#include "classifiers/classifier.hpp"
#include "features/upsampling.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "quant/calibrate.hpp"

namespace hawc {

struct pointnet_config {
    upsample_config upsample{};
    std::vector<std::size_t> mlp_channels = {32, 64, 128};  // shared MLP widths
    std::vector<std::size_t> fc_units = {64};               // head widths before logits
    double ground_z = -3.0;
    double xy_clamp = 3.0;  // clamp centered x/y (padding noise can be far away)
    train_config training{};

    static pointnet_config scaled() { return {}; }

    /// Original PointNet classification network widths (~748k params).
    static pointnet_config paper_scale() {
        pointnet_config c;
        c.mlp_channels = {64, 64, 64, 128, 1024};
        c.fc_units = {512, 256};
        return c;
    }
};

class pointnet_model final : public human_classifier {
public:
    pointnet_model(const pointnet_config& config, object_pool pool, rng& random);

    /// Cluster -> (1, P, 1, 3) tensor of normalized point coordinates.
    tensor featurize_cluster(const point_cloud& cluster, rng& random) const;
    labelled_dataset featurize(const cluster_dataset& data, rng& random) const;

    std::vector<epoch_report> train(const cluster_dataset& train_set,
                                    const cluster_dataset* test_set, rng& random);
    eval_metrics evaluate(const cluster_dataset& data, rng& random);

    bool is_human(const point_cloud& cluster, rng& random) const override;
    std::string name() const override { return "PointNet"; }

    sequential& network() { return network_; }
    std::size_t parameter_count() const { return network_.parameter_count(); }
    std::vector<std::size_t> sample_shape() const;

    quantized_model quantize(const cluster_dataset& calibration, rng& random,
                             std::size_t calibration_count = 100) const;

private:
    pointnet_config config_;
    object_pool pool_;
    mutable sequential network_;
};

}  // namespace hawc
