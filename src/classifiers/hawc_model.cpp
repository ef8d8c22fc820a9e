#include "classifiers/hawc_model.hpp"

#include <numbers>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"

namespace hawc {

namespace {

sequential build_network(const hawc_config& config, const cnn_feature_extractor& extractor,
                         rng& random) {
    const auto shape = extractor.sample_shape();  // (D, D, C)
    const std::size_t d = shape[0];
    const std::size_t in_channels = shape[2];

    sequential net;
    // conv1 (same padding) + BN + ReLU + pool
    net.emplace<conv2d>(in_channels, config.conv_channels[0], 3, padding::same, random);
    net.emplace<batch_norm>(config.conv_channels[0]);
    net.emplace<relu>();
    net.emplace<max_pool2d>(2);
    // conv2 + BN + ReLU + pool
    net.emplace<conv2d>(config.conv_channels[0], config.conv_channels[1], 3, padding::same,
                        random);
    net.emplace<batch_norm>(config.conv_channels[1]);
    net.emplace<relu>();
    net.emplace<max_pool2d>(2);
    // conv3 + BN + ReLU
    net.emplace<conv2d>(config.conv_channels[1], config.conv_channels[2], 3, padding::same,
                        random);
    net.emplace<batch_norm>(config.conv_channels[2]);
    net.emplace<relu>();
    // FC head
    const std::size_t spatial = (d / 2) / 2;
    const std::size_t flat = spatial * spatial * config.conv_channels[2];
    net.emplace<flatten>();
    net.emplace<dense>(flat, config.hidden_units, random);
    net.emplace<relu>();
    net.emplace<dense>(config.hidden_units, 2, random);
    return net;
}

}  // namespace

hawc_model::hawc_model(const hawc_config& config, object_pool pool, rng& random)
    : config_{config},
      extractor_{config.features, std::move(pool)},
      network_{build_network(config, extractor_, random)} {}

labelled_dataset hawc_model::featurize(const cluster_dataset& data, rng& random) const {
    labelled_dataset out;
    out.samples.reserve(data.size());
    out.labels = data.labels;
    for (const auto& cluster : data.clusters) {
        out.samples.push_back(extractor_.extract(cluster, random));
    }
    return out;
}

std::vector<epoch_report> hawc_model::train(const cluster_dataset& train_set,
                                            const cluster_dataset* test_set, rng& random) {
    const labelled_dataset train_data = featurize(train_set, random);
    labelled_dataset test_data;
    if (test_set != nullptr) test_data = featurize(*test_set, random);
    // Per-epoch augmentation: re-draw the up-sampling noise (padding is
    // noise, not signal, and must not be memorizable) and apply a random
    // yaw rotation around the cluster centroid (pedestrian heading is
    // arbitrary in deployment).
    const epoch_refresh_fn refresh = [this, &train_set](labelled_dataset& data, rng& r) {
        for (std::size_t i = 0; i < train_set.size(); ++i) {
            const auto& cluster = train_set.clusters[i];
            const point_cloud rotated =
                cluster.rotated_z(cluster.centroid(), r.uniform(0.0, 2.0 * std::numbers::pi));
            data.samples[i] = extractor_.extract(rotated, r);
        }
    };
    return train_classifier(network_, train_data, test_set != nullptr ? &test_data : nullptr,
                            config_.training, random, refresh);
}

eval_metrics hawc_model::evaluate(const cluster_dataset& data, rng& random) {
    return hawc::evaluate(network_, featurize(data, random));
}

bool hawc_model::is_human(const point_cloud& cluster, rng& random) const {
    const tensor input = extractor_.extract(cluster, random);
    const tensor logits = network_.infer(input);
    return logits.at(0, 1) > logits.at(0, 0);
}

quantized_model hawc_model::quantize(const cluster_dataset& calibration, rng& random,
                                     std::size_t calibration_count) const {
    HAWC_REQUIRE(calibration.size() > 0, "need calibration clusters");
    std::vector<tensor> samples;
    const std::size_t count = std::min(calibration_count, calibration.size());
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t pick = random.uniform_index(calibration.size());
        samples.push_back(extractor_.extract(calibration.clusters[pick], random));
    }
    return quantize_model(network_, samples);
}

}  // namespace hawc
