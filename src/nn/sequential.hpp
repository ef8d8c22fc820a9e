#pragma once

// Sequential model container: an ordered stack of layers with whole-model
// forward/backward, parameter access, summaries, and save/load.

#include <iosfwd>

#include "nn/layer.hpp"

namespace hawc {

class sequential {
public:
    sequential() = default;

    /// Append a layer (builder style).
    sequential& add(layer_ptr l);

    template <typename L, typename... Args>
    sequential& emplace(Args&&... args) {
        return add(std::make_unique<L>(std::forward<Args>(args)...));
    }

    std::size_t layer_count() const { return layers_.size(); }
    layer& layer_at(std::size_t i) { return *layers_[i]; }
    const layer& layer_at(std::size_t i) const { return *layers_[i]; }

    tensor forward(const tensor& input, bool training);
    tensor backward(const tensor& grad_output);

    /// Pure inference pass (see layer::infer): const and side-effect
    /// free, so one trained model can serve concurrent threads.
    tensor infer(const tensor& input) const;

    /// Run only layers [begin, end) — used for models that train a prefix
    /// against an auxiliary head (e.g. autoencoder pretraining).
    tensor forward_range(const tensor& input, std::size_t begin, std::size_t end, bool training);
    tensor backward_range(const tensor& grad_output, std::size_t begin, std::size_t end);

    std::vector<parameter*> parameters();
    std::vector<parameter*> parameters_range(std::size_t begin, std::size_t end);
    std::size_t parameter_count() const;

    /// Per-layer info for an input of the given single-sample shape.
    /// Runs one zero-filled sample through the network in eval mode so
    /// shape-dependent MAC counts are populated.
    std::vector<layer_info> summarize(std::vector<std::size_t> sample_shape);

    /// Total forward multiply-accumulates per sample.
    std::size_t macs_per_sample(std::vector<std::size_t> sample_shape);

    /// Binary serialization of parameters and buffers (architecture must
    /// match on load; a layout fingerprint is checked).
    void save(std::ostream& out) const;
    void load(std::istream& in);

private:
    std::vector<layer_ptr> layers_;
};

}  // namespace hawc
