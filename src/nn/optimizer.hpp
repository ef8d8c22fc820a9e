#pragma once

// The optimizer. The paper trains all networks with Adam (lr 0.001).

#include <vector>

#include "nn/layer.hpp"

namespace hawc {

struct adam_config {
    double learning_rate = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
};

class adam {
public:
    explicit adam(const adam_config& config = {}) : config_{config} {}

    /// Bind the parameters to optimize (once, before stepping).
    void attach(std::vector<parameter*> params);

    /// Apply one update from the accumulated gradients, then zero them.
    void step();

    double learning_rate() const { return config_.learning_rate; }
    void set_learning_rate(double lr) { config_.learning_rate = lr; }

private:
    adam_config config_;
    std::vector<parameter*> params_;
    std::vector<std::vector<float>> m_;
    std::vector<std::vector<float>> v_;
    std::size_t t_ = 0;
};

}  // namespace hawc
