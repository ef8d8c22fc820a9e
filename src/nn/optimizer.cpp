#include "nn/optimizer.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hawc {

void adam::attach(std::vector<parameter*> params) {
    params_ = std::move(params);
    m_.clear();
    v_.clear();
    for (auto* p : params_) {
        m_.emplace_back(p->value.size(), 0.0f);
        v_.emplace_back(p->value.size(), 0.0f);
    }
    t_ = 0;
}

void adam::step() {
    HAWC_REQUIRE(!params_.empty(), "optimizer not attached");
    ++t_;
    const double b1 = config_.beta1;
    const double b2 = config_.beta2;
    const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
    const double lr = config_.learning_rate;

    for (std::size_t pi = 0; pi < params_.size(); ++pi) {
        parameter& p = *params_[pi];
        auto& m = m_[pi];
        auto& v = v_[pi];
        for (std::size_t i = 0; i < p.value.size(); ++i) {
            const double g = static_cast<double>(p.grad[i]);
            m[i] = static_cast<float>(b1 * static_cast<double>(m[i]) + (1.0 - b1) * g);
            v[i] = static_cast<float>(b2 * static_cast<double>(v[i]) + (1.0 - b2) * g * g);
            const double m_hat = static_cast<double>(m[i]) / bias1;
            const double v_hat = static_cast<double>(v[i]) / bias2;
            p.value[i] -=
                static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + config_.epsilon));
        }
        p.grad.zero();
    }
}

}  // namespace hawc
