#include "runtime/health.hpp"

#include <cstdio>

namespace hawc {

const char* to_string(frame_status status) {
    switch (status) {
        case frame_status::ok: return "ok";
        case frame_status::degraded: return "degraded";
        case frame_status::dropped: return "dropped";
    }
    return "unknown";
}

const char* to_string(fallback_rung rung) {
    switch (rung) {
        case fallback_rung::fixed_eps: return "fixed_eps";
        case fallback_rung::float_model: return "float_model";
        case fallback_rung::stale_count: return "stale_count";
    }
    return "unknown";
}

namespace {

std::string json_u64(const char* key, std::uint64_t v) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"%s\":%llu", key, static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

bool progressed(const health_counters& earlier, const health_counters& later) {
    if (later.epoch != earlier.epoch) return later.epoch > earlier.epoch;
    return later.frames_total >= earlier.frames_total;
}

std::string health_counters::to_json() const {
    std::string out = "{";
    out += json_u64("epoch", epoch) + ",";
    out += json_u64("frames_total", frames_total) + ",";
    out += json_u64("frames_ok", frames_ok) + ",";
    out += json_u64("frames_degraded", frames_degraded) + ",";
    out += json_u64("frames_dropped", frames_dropped) + ",";
    out += json_u64("fixed_eps_fallbacks", fixed_eps_fallbacks) + ",";
    out += json_u64("float_model_fallbacks", float_model_fallbacks) + ",";
    out += json_u64("stale_counts_served", stale_counts_served) + ",";
    out += json_u64("stale_cap_exhausted", stale_cap_exhausted) + ",";
    out += json_u64("non_finite_points_dropped", non_finite_points_dropped) + ",";
    out += json_u64("duplicate_points_dropped", duplicate_points_dropped) + ",";
    out += json_u64("truncated_frames", truncated_frames) + ",";
    out += json_u64("classification_truncations", classification_truncations);
    out += "}";
    return out;
}

std::string health_counters::summary() const {
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof buf,
                  "frames     %llu total | %llu ok | %llu degraded | %llu dropped%s\n",
                  static_cast<unsigned long long>(frames_total),
                  static_cast<unsigned long long>(frames_ok),
                  static_cast<unsigned long long>(frames_degraded),
                  static_cast<unsigned long long>(frames_dropped),
                  accounted() ? "" : "  [ACCOUNTING MISMATCH]");
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "fallbacks  fixed-eps %llu | float-model %llu | stale served %llu "
                  "(cap exhausted %llu)\n",
                  static_cast<unsigned long long>(fixed_eps_fallbacks),
                  static_cast<unsigned long long>(float_model_fallbacks),
                  static_cast<unsigned long long>(stale_counts_served),
                  static_cast<unsigned long long>(stale_cap_exhausted));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "sanitize   %llu non-finite pts | %llu duplicate pts | %llu truncated "
                  "frames\n",
                  static_cast<unsigned long long>(non_finite_points_dropped),
                  static_cast<unsigned long long>(duplicate_points_dropped),
                  static_cast<unsigned long long>(truncated_frames));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "watchdog   %llu classification truncations\n",
                  static_cast<unsigned long long>(classification_truncations));
    out += buf;
    return out;
}

}  // namespace hawc
