#include "obs/event_log.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"

namespace hawc::obs {

namespace {

constexpr std::int64_t milli = 1000;

std::int64_t to_milli_tokens(double tokens) {
    return static_cast<std::int64_t>(tokens * static_cast<double>(milli));
}

}  // namespace

event_log::event_log(const event_log_config& config) : config_{config} {
    HAWC_REQUIRE(config_.capacity > 0, "event log needs a positive capacity");
    ring_.resize(config_.capacity);
    for (auto& ks : kinds_) {
        ks.milli_tokens.store(to_milli_tokens(config_.burst), std::memory_order_relaxed);
    }
}

void event_log::bind_metrics(telemetry::metrics_registry& registry) {
    using telemetry::labeled_name;
    for (std::size_t k = 0; k < telemetry::event_kind_count; ++k) {
        const auto kind = static_cast<telemetry::event_kind>(k);
        kinds_[k].accepted_counter = &registry.make_counter(
            labeled_name("hawc_events_total", "kind", to_string(kind)),
            "Events admitted to the structured log");
        kinds_[k].suppressed_counter = &registry.make_counter(
            labeled_name("hawc_events_suppressed_total", "kind", to_string(kind)),
            "Events dropped by the per-kind rate limiter");
    }
    for (std::size_t s = 0; s < telemetry::event_severity_count; ++s) {
        const auto severity = static_cast<telemetry::event_severity>(s);
        severity_counters_[s] = &registry.make_counter(
            labeled_name("hawc_events_severity_total", "severity", to_string(severity)),
            "Admitted events by severity");
    }
}

bool event_log::publish(const telemetry::event& ev) {
    const auto k = static_cast<std::size_t>(ev.kind);
    kind_state& ks = kinds_[k];
    if (config_.burst > 0.0) {
        // Claim one token; a failed claim refunds and suppresses. The
        // transient negative between claim and refund is fine — other
        // claimants just see an empty bucket a little early.
        const std::int64_t before = ks.milli_tokens.fetch_sub(milli, std::memory_order_relaxed);
        if (before < milli) {
            ks.milli_tokens.fetch_add(milli, std::memory_order_relaxed);
            ks.suppressed.fetch_add(1, std::memory_order_relaxed);
            if (ks.suppressed_counter != nullptr) ks.suppressed_counter->add(1);
            return false;
        }
    }

    published_.fetch_add(1, std::memory_order_relaxed);
    if (ks.accepted_counter != nullptr) ks.accepted_counter->add(1);
    if (auto* sc = severity_counters_[static_cast<std::size_t>(ev.severity)]; sc != nullptr) {
        sc->add(1);
    }

    {
        std::lock_guard lock{mutex_};
        ring_[next_] = ev;
        next_ = (next_ + 1) % ring_.size();
        size_ = std::min(size_ + 1, ring_.size());
    }
    return true;
}

void event_log::advance_tick(std::uint64_t tick) {
    last_tick_.store(tick, std::memory_order_relaxed);
    if (config_.burst <= 0.0) return;
    const std::int64_t refill = to_milli_tokens(config_.tokens_per_tick);
    const std::int64_t cap = to_milli_tokens(config_.burst);
    for (auto& ks : kinds_) {
        std::int64_t cur = ks.milli_tokens.load(std::memory_order_relaxed);
        std::int64_t want = std::min(cap, cur + refill);
        while (want > cur &&
               !ks.milli_tokens.compare_exchange_weak(cur, want, std::memory_order_relaxed)) {
            want = std::min(cap, cur + refill);
        }
    }
}

std::vector<telemetry::event> event_log::snapshot() const {
    std::lock_guard lock{mutex_};
    std::vector<telemetry::event> out;
    out.reserve(size_);
    const std::size_t start = (next_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
}

std::vector<telemetry::event> event_log::tail(std::size_t n) const {
    std::vector<telemetry::event> all = snapshot();
    if (all.size() <= n) return all;
    return {all.end() - static_cast<std::ptrdiff_t>(n), all.end()};
}

std::uint64_t event_log::suppressed() const {
    std::uint64_t total = 0;
    for (const auto& ks : kinds_) total += ks.suppressed.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t event_log::suppressed_of(telemetry::event_kind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].suppressed.load(std::memory_order_relaxed);
}

void event_log::clear() {
    std::lock_guard lock{mutex_};
    next_ = 0;
    size_ = 0;
}

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += c;
        }
    }
}

std::string json_num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

}  // namespace

std::string to_json_line(const telemetry::event& ev) {
    std::string out = "{\"tick\":" + std::to_string(ev.tick) +
                      ",\"frame\":" + std::to_string(ev.frame) + ",\"kind\":\"";
    append_json_escaped(out, to_string(ev.kind));
    out += "\",\"severity\":\"";
    append_json_escaped(out, to_string(ev.severity));
    out += "\"";
    if (!ev.pole_view().empty()) {
        out += ",\"pole\":\"";
        append_json_escaped(out, ev.pole_view());
        out += "\"";
    }
    if (!ev.what_view().empty()) {
        out += ",\"what\":\"";
        append_json_escaped(out, ev.what_view());
        out += "\"";
    }
    if (ev.field_count > 0) {
        out += ",\"fields\":{";
        for (std::size_t i = 0; i < ev.field_count; ++i) {
            if (i > 0) out += ",";
            out += "\"";
            append_json_escaped(out, ev.fields[i].key != nullptr ? ev.fields[i].key : "");
            out += "\":" + json_num(ev.fields[i].value);
        }
        out += "}";
    }
    out += "}";
    return out;
}

std::string to_json_lines(std::span<const telemetry::event> events) {
    std::string out;
    for (const auto& ev : events) {
        out += to_json_line(ev);
        out += '\n';
    }
    return out;
}

}  // namespace hawc::obs
