#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace replaybench {

namespace {

// Nearest-rank: the smallest sample with at least p% of samples at or
// below it. Rank is 1-based.
std::size_t nearest_rank(std::size_t n, double p) {
    const double exact = p / 100.0 * static_cast<double>(n);
    auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) throw std::invalid_argument{"percentile of no samples"};
    const std::size_t rank = nearest_rank(samples.size(), p);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

std::size_t samples_beyond(std::size_t n, double p) {
    return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
    for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
        if (samples_beyond(n, p) >= min_beyond) return p;
    }
    return 0.0;
}

std::string digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value()));
    return buf;
}

}  // namespace replaybench
