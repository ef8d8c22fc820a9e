#pragma once

// Generic int8 classifier: a quantized model plus the featurizer of the
// fp32 model it was converted from. Works for HAWC, PointNet and the
// AutoEncoder head alike, so every *-CC pipeline has an int8 variant.

#include <cmath>
#include <functional>

#include "classifiers/classifier.hpp"
#include "common/error.hpp"
#include "nn/trainer.hpp"
#include "quant/calibrate.hpp"

namespace hawc {

class quantized_classifier final : public human_classifier {
public:
    /// Converts a cluster to the model's input tensor (batch 1).
    using featurizer_fn = std::function<tensor(const point_cloud&, rng&)>;

    quantized_classifier(quantized_model model, featurizer_fn featurize, std::string name)
        : model_{std::move(model)}, featurize_{std::move(featurize)}, name_{std::move(name)} {}

    bool is_human(const point_cloud& cluster, rng& random) const override {
        const tensor logits = model_.forward(featurize_(cluster, random));
        const float object_logit = logits.at(0, 0);
        const float human_logit = logits.at(0, 1);
        // Dequantization validation: corrupted scales or poisoned inputs
        // surface as non-finite logits. Raising data_integrity_error lets
        // the streaming runtime fall back to the fp32 model instead of
        // silently classifying on garbage (NaN comparisons are all false).
        if (!std::isfinite(object_logit) || !std::isfinite(human_logit)) {
            throw data_integrity_error{"quantized " + name_ +
                                       " produced non-finite logits"};
        }
        return human_logit > object_logit;
    }

    std::string name() const override { return name_; }
    const quantized_model& model() const { return model_; }

    eval_metrics evaluate(const cluster_dataset& data, rng& random) const {
        labelled_dataset featurized;
        featurized.labels = data.labels;
        featurized.samples.reserve(data.size());
        for (const auto& cluster : data.clusters) {
            featurized.samples.push_back(featurize_(cluster, random));
        }
        return evaluate_quantized(model_, featurized);
    }

private:
    quantized_model model_;
    featurizer_fn featurize_;
    std::string name_;
};

}  // namespace hawc
