// Tests for the neural-network library: tensor mechanics, numerical
// gradient checks for every layer, loss functions, optimizers, the
// training loop, and serialization.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batch_norm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"

namespace hawc {
namespace {

tensor random_tensor(std::vector<std::size_t> shape, rng& r, double scale = 1.0) {
    tensor t{std::move(shape)};
    for (std::size_t i = 0; i < t.size(); ++i) {
        t[i] = static_cast<float>(r.normal(0.0, scale));
    }
    return t;
}

/// Scalar objective: weighted sum of the layer output (weights fixed by
/// a seeded rng so the gradient is non-trivial).
double objective(const tensor& out, const tensor& weights) {
    double sum = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        sum += static_cast<double>(out[i]) * static_cast<double>(weights[i]);
    }
    return sum;
}

/// Check dL/dinput (and parameter gradients) of a layer against central
/// finite differences.
void check_layer_gradients(layer& l, const tensor& input, bool training = true,
                           double tolerance = 2e-2) {
    rng r{4242};
    tensor out = l.forward(input, training);
    const tensor obj_weights = random_tensor(out.shape(), r);

    // Analytic gradients.
    for (auto* p : l.parameters()) p->grad.zero();
    tensor grad_out{out.shape()};
    for (std::size_t i = 0; i < out.size(); ++i) grad_out[i] = obj_weights[i];
    const tensor grad_in = l.backward(grad_out);

    // Numerical input gradient (spot-check a subset for speed).
    tensor probe = input;
    const float h = 1e-2f;
    const std::size_t stride = std::max<std::size_t>(1, input.size() / 24);
    for (std::size_t i = 0; i < input.size(); i += stride) {
        const float saved = probe[i];
        probe[i] = saved + h;
        const double up = objective(l.forward(probe, training), obj_weights);
        probe[i] = saved - h;
        const double down = objective(l.forward(probe, training), obj_weights);
        probe[i] = saved;
        const double numeric = (up - down) / (2.0 * static_cast<double>(h));
        EXPECT_NEAR(grad_in[i], numeric, tolerance * std::max(1.0, std::abs(numeric)))
            << "input grad mismatch at " << i;
    }

    // Numerical parameter gradients. Re-run forward/backward to restore
    // caches after probing.
    (void)l.forward(input, training);
    for (auto* p : l.parameters()) p->grad.zero();
    (void)l.backward(grad_out);
    for (auto* p : l.parameters()) {
        const std::size_t pstride = std::max<std::size_t>(1, p->value.size() / 16);
        for (std::size_t i = 0; i < p->value.size(); i += pstride) {
            const float saved = p->value[i];
            p->value[i] = saved + h;
            const double up = objective(l.forward(input, training), obj_weights);
            p->value[i] = saved - h;
            const double down = objective(l.forward(input, training), obj_weights);
            p->value[i] = saved;
            const double numeric = (up - down) / (2.0 * static_cast<double>(h));
            EXPECT_NEAR(p->grad[i], numeric, tolerance * std::max(1.0, std::abs(numeric)))
                << "param grad mismatch at " << i;
        }
    }
}

TEST(tensor, shape_and_indexing) {
    tensor t{{2, 3, 4, 5}};
    EXPECT_EQ(t.size(), 2u * 3u * 4u * 5u);
    EXPECT_EQ(t.rank(), 4u);
    t.at(1, 2, 3, 4) = 7.0f;
    EXPECT_EQ(t[t.size() - 1], 7.0f);
    EXPECT_EQ(t.batch(), 2u);
    EXPECT_EQ(t.sample_size(), 60u);
}

TEST(tensor, fill_and_zero) {
    tensor t{{4}};
    t.fill(2.5f);
    EXPECT_EQ(t[3], 2.5f);
    t.zero();
    EXPECT_EQ(t[0], 0.0f);
}

TEST(tensor, reshape_preserves_data) {
    tensor t{{2, 6}};
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
    const tensor r = t.reshaped({2, 2, 3, 1});
    EXPECT_EQ(r[7], 7.0f);
    EXPECT_THROW(t.reshaped({5}), invalid_argument_error);
}

TEST(tensor, stack_and_slice_roundtrip) {
    rng r{1};
    std::vector<tensor> samples;
    for (int i = 0; i < 3; ++i) samples.push_back(random_tensor({1, 2, 2, 2}, r));
    const tensor batch = tensor::stack(samples);
    EXPECT_EQ(batch.dim(0), 3u);
    for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(batch.slice_sample(n), samples[n]);
    }
    EXPECT_THROW(batch.slice_sample(3), invalid_argument_error);
}

TEST(tensor, stack_rejects_mismatched) {
    std::vector<tensor> samples;
    samples.emplace_back(std::vector<std::size_t>{1, 2});
    samples.emplace_back(std::vector<std::size_t>{1, 3});
    EXPECT_THROW(tensor::stack(samples), invalid_argument_error);
}

TEST(gradients, dense_layer) {
    rng r{2};
    dense layer{6, 4, r};
    check_layer_gradients(layer, random_tensor({3, 6}, r));
}

TEST(gradients, conv2d_same_padding) {
    rng r{3};
    conv2d layer{2, 3, 3, padding::same, r};
    check_layer_gradients(layer, random_tensor({2, 5, 5, 2}, r));
}

TEST(gradients, conv2d_valid_padding) {
    rng r{4};
    conv2d layer{2, 2, 3, padding::valid, r};
    check_layer_gradients(layer, random_tensor({2, 6, 6, 2}, r));
}

TEST(gradients, conv2d_1x1) {
    rng r{5};
    conv2d layer{3, 4, 1, padding::valid, r};
    check_layer_gradients(layer, random_tensor({2, 7, 1, 3}, r));
}

TEST(gradients, relu_layer) {
    rng r{6};
    relu layer;
    // Keep values away from the kink for finite differences.
    tensor input = random_tensor({2, 10}, r);
    for (std::size_t i = 0; i < input.size(); ++i) {
        if (std::abs(input[i]) < 0.1f) input[i] += 0.3f;
    }
    check_layer_gradients(layer, input);
}

TEST(gradients, max_pool) {
    rng r{7};
    max_pool2d layer{2};
    // Spread values so the argmax is stable under probing.
    tensor input{{1, 4, 4, 2}};
    for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>(i % 7) + 0.001f * static_cast<float>(i);
    }
    check_layer_gradients(layer, input);
}

TEST(gradients, global_max_pool) {
    rng r{8};
    global_max_pool layer;
    tensor input{{2, 5, 1, 3}};
    for (std::size_t i = 0; i < input.size(); ++i) {
        input[i] = static_cast<float>((i * 37) % 11) + 0.001f * static_cast<float>(i);
    }
    check_layer_gradients(layer, input);
}

TEST(gradients, batch_norm_training_mode) {
    rng r{9};
    batch_norm layer{3};
    check_layer_gradients(layer, random_tensor({4, 2, 2, 3}, r), /*training=*/true, 5e-2);
}

TEST(gradients, flatten_passthrough) {
    rng r{10};
    flatten layer;
    check_layer_gradients(layer, random_tensor({2, 3, 3, 2}, r));
}

TEST(batch_norm, normalizes_batch_statistics) {
    rng r{11};
    batch_norm layer{2};
    const tensor input = random_tensor({16, 4, 4, 2}, r, 3.0);
    const tensor out = layer.forward(input, /*training=*/true);
    // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
    for (std::size_t c = 0; c < 2; ++c) {
        double mean = 0.0;
        const std::size_t rows = out.size() / 2;
        for (std::size_t i = 0; i < rows; ++i) mean += static_cast<double>(out[i * 2 + c]);
        mean /= static_cast<double>(rows);
        EXPECT_NEAR(mean, 0.0, 1e-4);
    }
}

TEST(batch_norm, eval_uses_running_stats) {
    rng r{12};
    batch_norm layer{2};
    for (int i = 0; i < 50; ++i) {
        (void)layer.forward(random_tensor({8, 2, 2, 2}, r, 2.0), true);
    }
    // Eval on a constant input: output should be deterministic and
    // driven by running statistics, not the batch itself.
    tensor constant{{4, 2, 2, 2}};
    constant.fill(1.0f);
    const tensor a = layer.forward(constant, false);
    const tensor b = layer.forward(constant, false);
    EXPECT_EQ(a, b);
}

TEST(loss, softmax_rows_sum_to_one) {
    rng r{13};
    const tensor logits = random_tensor({5, 4}, r, 3.0);
    const tensor probs = softmax(logits);
    for (std::size_t n = 0; n < 5; ++n) {
        double sum = 0.0;
        for (std::size_t k = 0; k < 4; ++k) sum += static_cast<double>(probs.at(n, k));
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(loss, cross_entropy_perfect_prediction) {
    tensor logits{{1, 2}};
    logits.at(0, 0) = -20.0f;
    logits.at(0, 1) = 20.0f;
    const std::uint8_t label[] = {1};
    const auto result = softmax_cross_entropy(logits, label);
    EXPECT_NEAR(result.loss, 0.0, 1e-4);
    EXPECT_EQ(result.correct, 1u);
}

TEST(loss, cross_entropy_gradient_numerically) {
    rng r{14};
    tensor logits = random_tensor({3, 4}, r);
    const std::uint8_t labels[] = {0, 2, 3};
    const auto result = softmax_cross_entropy(logits, labels);
    const float h = 1e-3f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        tensor probe = logits;
        probe[i] += h;
        const double up = softmax_cross_entropy(probe, labels).loss;
        probe[i] -= 2 * h;
        const double down = softmax_cross_entropy(probe, labels).loss;
        const double numeric = (up - down) / (2.0 * static_cast<double>(h));
        EXPECT_NEAR(result.grad_logits[i], numeric, 1e-3);
    }
}

TEST(loss, cross_entropy_rejects_bad_labels) {
    tensor logits{{1, 2}};
    const std::uint8_t label[] = {5};
    EXPECT_THROW(softmax_cross_entropy(logits, label), invalid_argument_error);
}

TEST(loss, mse_value_and_gradient) {
    tensor pred{{1, 2}};
    pred[0] = 1.0f;
    pred[1] = 3.0f;
    tensor target{{1, 2}};
    target[0] = 0.0f;
    target[1] = 1.0f;
    const auto result = mean_squared_error(pred, target);
    EXPECT_NEAR(result.loss, (1.0 + 4.0) / 2.0, 1e-6);
    EXPECT_NEAR(result.grad[0], 2.0f * 1.0f / 2.0f, 1e-6);
}

TEST(optimizer, adam_minimizes_quadratic) {
    // Minimize (w - 3)^2 through the parameter/gradient interface.
    parameter w{{1}};
    w.value[0] = 0.0f;
    adam opt{adam_config{0.1, 0.9, 0.999, 1e-8}};
    opt.attach({&w});
    for (int i = 0; i < 200; ++i) {
        w.grad[0] = 2.0f * (w.value[0] - 3.0f);
        opt.step();
    }
    EXPECT_NEAR(w.value[0], 3.0f, 1e-2);
}

TEST(optimizer, step_zeroes_gradients) {
    parameter w{{2}};
    adam opt;
    opt.attach({&w});
    w.grad.fill(1.0f);
    opt.step();
    EXPECT_EQ(w.grad[0], 0.0f);
}

sequential tiny_mlp(rng& r) {
    sequential net;
    net.emplace<dense>(2, 16, r);
    net.emplace<relu>();
    net.emplace<dense>(16, 2, r);
    return net;
}

labelled_dataset xor_dataset(rng& r, std::size_t n) {
    labelled_dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const bool a = r.chance(0.5);
        const bool b = r.chance(0.5);
        tensor x{{1, 2}};
        x[0] = a ? 1.0f : -1.0f;
        x[1] = b ? 1.0f : -1.0f;
        data.samples.push_back(x);
        data.labels.push_back(static_cast<std::uint8_t>(a != b));
    }
    return data;
}

TEST(trainer, learns_xor) {
    rng r{15};
    sequential net = tiny_mlp(r);
    const labelled_dataset train = xor_dataset(r, 256);
    const labelled_dataset test = xor_dataset(r, 64);
    train_config cfg;
    cfg.epochs = 40;
    cfg.batch_size = 16;
    const auto reports = train_classifier(net, train, &test, cfg, r);
    EXPECT_GT(reports.back().test_accuracy, 0.95);
    EXPECT_LT(reports.back().train_loss, reports.front().train_loss);
}

TEST(trainer, evaluate_confusion_counts) {
    rng r{16};
    sequential net = tiny_mlp(r);
    const labelled_dataset data = xor_dataset(r, 100);
    const eval_metrics m = evaluate(net, data);
    EXPECT_EQ(m.true_positive + m.true_negative + m.false_positive + m.false_negative, 100u);
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_LE(m.accuracy, 1.0);
}

TEST(trainer, stratified_fraction_keeps_both_classes) {
    rng r{17};
    const labelled_dataset data = xor_dataset(r, 200);
    const labelled_dataset tiny = data.stratified_fraction(0.01, r);
    bool has0 = false;
    bool has1 = false;
    for (auto l : tiny.labels) (l == 0 ? has0 : has1) = true;
    EXPECT_TRUE(has0);
    EXPECT_TRUE(has1);
    EXPECT_LT(tiny.size(), 10u);
}

TEST(trainer, stratified_fraction_full_is_identity_sized) {
    rng r{18};
    const labelled_dataset data = xor_dataset(r, 100);
    EXPECT_EQ(data.stratified_fraction(1.0, r).size(), 100u);
    EXPECT_THROW(data.stratified_fraction(0.0, r), invalid_argument_error);
}

TEST(trainer, lr_decay_applies) {
    rng r{19};
    sequential net = tiny_mlp(r);
    const labelled_dataset train = xor_dataset(r, 64);
    train_config cfg;
    cfg.epochs = 6;
    cfg.lr_decay_factor = 0.1;
    cfg.lr_decay_period = 2;
    // Just exercise the path; convergence covered elsewhere.
    const auto reports = train_classifier(net, train, nullptr, cfg, r);
    EXPECT_EQ(reports.size(), 6u);
}

TEST(sequential, forward_range_composes) {
    rng r{20};
    sequential net = tiny_mlp(r);
    const tensor x = random_tensor({2, 2}, r);
    const tensor full = net.forward(x, false);
    const tensor mid = net.forward_range(x, 0, 2, false);
    const tensor tail = net.forward_range(mid, 2, net.layer_count(), false);
    EXPECT_EQ(full, tail);
}

TEST(sequential, parameter_count_matches_layers) {
    rng r{21};
    sequential net = tiny_mlp(r);
    EXPECT_EQ(net.parameter_count(), 2u * 16 + 16 + 16 * 2 + 2);
    EXPECT_EQ(net.parameters().size(), 4u);  // two dense layers x (W, b)
    EXPECT_EQ(net.parameters_range(0, 1).size(), 2u);
}

TEST(sequential, summarize_reports_macs) {
    rng r{22};
    sequential net;
    net.emplace<conv2d>(3, 8, 3, padding::same, r);
    net.emplace<relu>();
    net.emplace<flatten>();
    net.emplace<dense>(8 * 6 * 6, 2, r);
    const auto infos = net.summarize({6, 6, 3});
    ASSERT_EQ(infos.size(), 4u);
    EXPECT_EQ(infos[0].macs_per_sample, 6u * 6 * 8 * 3 * 3 * 3);
    EXPECT_EQ(infos[3].macs_per_sample, 8u * 36 * 2);
    EXPECT_GT(net.macs_per_sample({6, 6, 3}), 0u);
}

TEST(sequential, save_load_roundtrip) {
    rng r{23};
    sequential net;
    net.emplace<conv2d>(2, 4, 3, padding::same, r);
    net.emplace<batch_norm>(4);
    net.emplace<relu>();
    net.emplace<flatten>();
    net.emplace<dense>(4 * 4 * 4, 2, r);

    const tensor x = random_tensor({1, 4, 4, 2}, r);
    (void)net.forward(x, true);  // move BN running stats off default
    const tensor before = net.forward(x, false);

    std::stringstream buffer;
    net.save(buffer);

    rng r2{999};
    sequential copy;
    copy.emplace<conv2d>(2, 4, 3, padding::same, r2);
    copy.emplace<batch_norm>(4);
    copy.emplace<relu>();
    copy.emplace<flatten>();
    copy.emplace<dense>(4 * 4 * 4, 2, r2);
    copy.load(buffer);

    const tensor after = copy.forward(x, false);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) EXPECT_FLOAT_EQ(before[i], after[i]);
}

TEST(sequential, load_rejects_architecture_mismatch) {
    rng r{24};
    sequential net = tiny_mlp(r);
    std::stringstream buffer;
    net.save(buffer);

    sequential other;
    other.emplace<dense>(3, 2, r);
    EXPECT_THROW(other.load(buffer), io_error);
}

TEST(sequential, load_rejects_garbage) {
    sequential net;
    rng r{25};
    net.emplace<dense>(2, 2, r);
    std::istringstream garbage{"definitely not a model"};
    EXPECT_THROW(net.load(garbage), io_error);
}

}  // namespace
}  // namespace hawc
