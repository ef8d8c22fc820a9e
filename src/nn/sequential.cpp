#include "nn/sequential.hpp"

#include <cstdint>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace hawc {

sequential& sequential::add(layer_ptr l) {
    HAWC_REQUIRE(l != nullptr, "cannot add null layer");
    layers_.push_back(std::move(l));
    return *this;
}

tensor sequential::forward(const tensor& input, bool training) {
    tensor x = input;
    for (auto& l : layers_) x = l->forward(x, training);
    return x;
}

tensor sequential::infer(const tensor& input) const {
    tensor x = input;
    for (const auto& l : layers_) x = l->infer(x);
    return x;
}

tensor sequential::backward(const tensor& grad_output) {
    tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
}

tensor sequential::forward_range(const tensor& input, std::size_t begin, std::size_t end,
                                 bool training) {
    HAWC_REQUIRE(begin <= end && end <= layers_.size(), "layer range out of bounds");
    tensor x = input;
    for (std::size_t i = begin; i < end; ++i) x = layers_[i]->forward(x, training);
    return x;
}

tensor sequential::backward_range(const tensor& grad_output, std::size_t begin, std::size_t end) {
    HAWC_REQUIRE(begin <= end && end <= layers_.size(), "layer range out of bounds");
    tensor g = grad_output;
    for (std::size_t i = end; i > begin; --i) g = layers_[i - 1]->backward(g);
    return g;
}

std::vector<parameter*> sequential::parameters_range(std::size_t begin, std::size_t end) {
    HAWC_REQUIRE(begin <= end && end <= layers_.size(), "layer range out of bounds");
    std::vector<parameter*> all;
    for (std::size_t i = begin; i < end; ++i) {
        for (auto* p : layers_[i]->parameters()) all.push_back(p);
    }
    return all;
}

std::vector<parameter*> sequential::parameters() {
    std::vector<parameter*> all;
    for (auto& l : layers_) {
        for (auto* p : l->parameters()) all.push_back(p);
    }
    return all;
}

std::size_t sequential::parameter_count() const {
    std::size_t total = 0;
    for (const auto& l : layers_) total += l->info().parameter_count;
    return total;
}

std::vector<layer_info> sequential::summarize(std::vector<std::size_t> sample_shape) {
    sample_shape.insert(sample_shape.begin(), 1);  // batch of one
    tensor probe{sample_shape};
    (void)forward(probe, /*training=*/false);
    std::vector<layer_info> infos;
    infos.reserve(layers_.size());
    for (const auto& l : layers_) infos.push_back(l->info());
    return infos;
}

std::size_t sequential::macs_per_sample(std::vector<std::size_t> sample_shape) {
    std::size_t total = 0;
    for (const auto& li : summarize(std::move(sample_shape))) total += li.macs_per_sample;
    return total;
}

namespace {

constexpr std::uint32_t magic = 0x48435741;  // "AWCH"

void write_tensor(std::ostream& out, const tensor& t) {
    const auto rank = static_cast<std::uint32_t>(t.rank());
    out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
    for (std::size_t d = 0; d < t.rank(); ++d) {
        const auto dim = static_cast<std::uint64_t>(t.dim(d));
        out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
    }
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(t.size() * sizeof(float)));
}

void read_tensor(std::istream& in, tensor& t) {
    std::uint32_t rank = 0;
    in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
    std::vector<std::size_t> shape(rank);
    for (auto& dim : shape) {
        std::uint64_t d = 0;
        in.read(reinterpret_cast<char*>(&d), sizeof(d));
        dim = static_cast<std::size_t>(d);
    }
    if (!in) throw io_error{"truncated model stream"};
    if (shape != t.shape()) throw io_error{"model architecture mismatch on load"};
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    if (!in) throw io_error{"truncated model stream"};
}

}  // namespace

void sequential::save(std::ostream& out) const {
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    const auto layer_count = static_cast<std::uint64_t>(layers_.size());
    out.write(reinterpret_cast<const char*>(&layer_count), sizeof(layer_count));
    for (const auto& l : layers_) {
        auto* mutable_layer = const_cast<layer*>(l.get());
        for (auto* p : mutable_layer->parameters()) write_tensor(out, p->value);
        for (auto* b : mutable_layer->buffers()) write_tensor(out, *b);
    }
    if (!out) throw io_error{"model write failed"};
}

void sequential::load(std::istream& in) {
    std::uint32_t file_magic = 0;
    in.read(reinterpret_cast<char*>(&file_magic), sizeof(file_magic));
    if (!in || file_magic != magic) throw io_error{"not a hawc model stream"};
    std::uint64_t layer_count = 0;
    in.read(reinterpret_cast<char*>(&layer_count), sizeof(layer_count));
    if (layer_count != layers_.size()) throw io_error{"model layer count mismatch"};
    for (auto& l : layers_) {
        for (auto* p : l->parameters()) read_tensor(in, p->value);
        for (auto* b : l->buffers()) read_tensor(in, *b);
    }
}

}  // namespace hawc
