#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdio>

#include "common/thread_pool.hpp"

namespace hawc::telemetry {

namespace {

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

// Prometheus label-value escaping: backslash, double quote, and newline
// are the three characters the exposition format requires escaping.
std::string prom_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '"': out += "\\\""; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

// HELP text escaping: the exposition format allows help to span one
// line only, with `\\` and `\n` as the two escape sequences. Anything
// else passes through verbatim.
std::string prom_escape_help(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            default: out += c;
        }
    }
    return out;
}

// One registry name decomposed per the labeled_name() convention
// (`base@k1=v1@k2=v2@...`). Names without a well-formed suffix (every
// segment needs a non-empty key before '=') keep the whole string as the
// base and carry no labels, which preserves the byte-exact output for
// every pre-existing flat metric.
struct series_parts {
    std::string base;
    std::vector<std::string> keys;    // empty <=> unlabeled
    std::vector<std::string> values;  // raw (unescaped), parallel to keys
    bool labeled() const { return !keys.empty(); }
};

series_parts split_series(const std::string& name) {
    const auto at = name.find('@');
    if (at == std::string::npos || at == 0) return {name, {}, {}};
    series_parts parts;
    parts.base = name.substr(0, at);
    std::size_t pos = at + 1;
    while (pos <= name.size()) {
        std::size_t end = name.find('@', pos);
        if (end == std::string::npos) end = name.size();
        const std::size_t eq = name.find('=', pos);
        if (eq == std::string::npos || eq == pos || eq >= end) return {name, {}, {}};
        parts.keys.push_back(name.substr(pos, eq - pos));
        parts.values.push_back(name.substr(eq + 1, end - eq - 1));
        if (end == name.size()) break;
        pos = end + 1;
    }
    return parts;
}

// Renders `{k1="v1",k2="v2"}`, optionally with extra pre-rendered label
// pairs (used for histogram `le`) appended inside the braces.
std::string prom_labels(const series_parts& p, const std::string& extra = "") {
    if (!p.labeled()) return extra.empty() ? "" : "{" + extra + "}";
    std::string out = "{";
    for (std::size_t i = 0; i < p.keys.size(); ++i) {
        if (i > 0) out += ",";
        out += p.keys[i] + "=\"" + prom_escape(p.values[i]) + "\"";
    }
    if (!extra.empty()) out += "," + extra;
    out += "}";
    return out;
}

}  // namespace

std::string to_prometheus(const metrics_registry& reg) {
    // HELP/TYPE are per *family* (base name): the first series of a
    // labeled family announces them, later series of the same family emit
    // samples only — Prometheus rejects duplicate TYPE lines.
    std::string out;
    std::vector<std::string> announced;
    const auto announce = [&](const std::string& base, const std::string& help,
                              const char* type) {
        if (std::find(announced.begin(), announced.end(), base) != announced.end()) return;
        announced.push_back(base);
        if (!help.empty()) out += "# HELP " + base + " " + prom_escape_help(help) + "\n";
        out += "# TYPE " + base + " " + std::string{type} + "\n";
    };

    for (const auto& c : reg.counter_samples()) {
        const series_parts p = split_series(c.name);
        announce(p.base, c.help, "counter");
        out += p.base + prom_labels(p) + " " + num(c.value) + "\n";
    }
    announced.clear();
    for (const auto& g : reg.gauge_samples()) {
        const series_parts p = split_series(g.name);
        announce(p.base, g.help, "gauge");
        out += p.base + prom_labels(p) + " " + num(g.value) + "\n";
    }
    announced.clear();
    for (const auto& h : reg.histogram_samples()) {
        const series_parts p = split_series(h.name);
        announce(p.base, h.help, "histogram");
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            out += p.base + "_bucket" + prom_labels(p, "le=\"" + num(h.bounds[i]) + "\"") +
                   " " + num(h.cumulative[i]) + "\n";
        }
        out += p.base + "_bucket" + prom_labels(p, "le=\"+Inf\"") + " " +
               num(h.cumulative.back()) + "\n";
        out += p.base + "_sum" + prom_labels(p) + " " + num(h.sum) + "\n";
        out += p.base + "_count" + prom_labels(p) + " " + num(h.count) + "\n";
    }
    return out;
}

std::string to_json(const metrics_registry& reg) {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto& c : reg.counter_samples()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(out, c.name);
        out += "\": " + num(c.value);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& g : reg.gauge_samples()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(out, g.name);
        out += "\": " + num(g.value);
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& h : reg.histogram_samples()) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        append_json_escaped(out, h.name);
        out += "\": {\"count\": " + num(h.count) + ", \"sum\": " + num(h.sum) +
               ", \"min\": " + num(h.min) + ", \"max\": " + num(h.max) +
               ", \"p50\": " + num(h.p50) + ", \"p95\": " + num(h.p95) +
               ", \"p99\": " + num(h.p99) + ", \"buckets\": [";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
            if (i > 0) out += ", ";
            out += "{\"le\": " + num(h.bounds[i]) + ", \"count\": " + num(h.cumulative[i]) + "}";
        }
        if (!h.bounds.empty()) out += ", ";
        out += "{\"le\": \"+Inf\", \"count\": " + num(h.cumulative.back()) + "}]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

std::string to_chrome_trace(std::span<const span_record> spans) {
    // Normalize to the earliest start so the timeline begins at t=0;
    // Chrome trace timestamps are microseconds.
    std::uint64_t t0 = 0;
    bool have_t0 = false;
    for (const auto& s : spans) {
        if (!have_t0 || s.start_ns < t0) {
            t0 = s.start_ns;
            have_t0 = true;
        }
    }

    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const auto& s : spans) {
        out += first ? "\n" : ",\n";
        first = false;
        const double ts_us = static_cast<double>(s.start_ns - t0) / 1000.0;
        const double dur_us =
            static_cast<double>(s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0) / 1000.0;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "  {\"name\": \"%s\", \"cat\": \"pipeline\", \"ph\": \"X\", "
                      "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"span\": %u, \"parent\": %u, \"frame\": %llu, "
                      "\"code\": %u}}",
                      s.name, s.tid, ts_us, dur_us, s.id, s.parent,
                      static_cast<unsigned long long>(s.frame), s.code);
        out += buf;
    }
    out += first ? "]}\n" : "\n]}\n";
    return out;
}

void record_pool_gauges(metrics_registry& reg, const thread_pool& pool) {
    reg.make_gauge("hawc_pool_lanes", "Execution lanes in the worker pool")
        .set(static_cast<double>(pool.thread_count()));
    reg.make_gauge("hawc_pool_active_lanes", "Lanes executing a chunk at sample time")
        .set(static_cast<double>(pool.active_lanes()));
    reg.make_gauge("hawc_pool_utilization", "active_lanes / lanes at sample time")
        .set(static_cast<double>(pool.active_lanes()) /
             static_cast<double>(pool.thread_count()));
    reg.make_gauge("hawc_pool_jobs_dispatched", "Cumulative parallel_for fan-outs")
        .set(static_cast<double>(pool.jobs_dispatched()));
    reg.make_gauge("hawc_pool_inline_runs", "Cumulative inline (non-fanned) region runs")
        .set(static_cast<double>(pool.inline_runs()));
    reg.make_gauge("hawc_pool_contended_dispatches",
                   "Cumulative fan-outs that arrived while lanes were busy")
        .set(static_cast<double>(pool.contended_dispatches()));
}

}  // namespace hawc::telemetry
