#pragma once

// One replay pass over a workload's corpus through the production path
// (frame_supervisor for pole workloads, fleet_manager for the fleet),
// plus the optional side measurements a traced run takes around it.

#include <deque>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "obs/event_log.hpp"
#include "replay/container.hpp"
#include "telemetry/trace.hpp"

namespace replaybench {

/// Installs one trace sink per supervisor, large enough to hold a whole
/// pass, drains it after the pass's timed window, and keeps the
/// aggregates plus the first spans for the Chrome trace written at exit.
struct span_probe {
    static constexpr std::size_t sink_capacity = std::size_t{1} << 15;

    std::deque<hawc::telemetry::trace_sink> sinks;
    std::vector<hawc::telemetry::span_record> kept;

    std::uint64_t frames = 0;
    double ingest_ms = 0.0;
    double self_ms = 0.0;
    double cluster_skew = 0.0;
    std::uint64_t skew_frames = 0;

    explicit span_probe(std::size_t supervisors) {
        for (std::size_t i = 0; i < supervisors; ++i) sinks.emplace_back(sink_capacity);
    }

    /// Absorb and clear sink i's spans; throws std::runtime_error when the
    /// sink wrapped. Appends each frame span's (start ns, ms) to
    /// `frame_spans` when given.
    void drain(std::size_t i,
               std::vector<std::pair<std::uint64_t, double>>* frame_spans = nullptr);
};

struct health_totals {
    std::uint64_t frames = 0;
    std::uint64_t degraded = 0;
    std::uint64_t fixed_eps = 0;
    std::uint64_t float_fallbacks = 0;

    void add(const hawc::health_counters& h) {
        frames += h.frames_total;
        degraded += h.frames_degraded;
        fixed_eps += h.fixed_eps_fallbacks;
        float_fallbacks += h.float_model_fallbacks;
    }
};

/// Side measurements a traced or probing pass records. Counts are
/// summed over `passes`; every pass replays the same corpus.
struct layer_probe {
    span_probe* spans = nullptr;  // null: tracing off
    std::uint64_t passes = 0;

    double read_us = 0.0;
    std::uint64_t reads = 0;
    double submit_us = 0.0;
    std::uint64_t submits = 0;
    double board_us = 0.0;
    std::uint64_t board_reads = 0;
    double pole_skew = 0.0;
    std::uint64_t skew_ticks = 0;
    std::uint64_t chunks_decoded = 0;
    health_totals health;
    std::uint64_t shed = 0;
    std::uint64_t checksum_failures = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t events_published = 0;
    std::uint64_t events_suppressed = 0;
    std::uint64_t postmortems = 0;
};

struct pass_result {
    std::vector<double> latency_ms;  // one per operation
    double wall_s = 0.0;
    std::uint64_t frames_counted = 0;
    std::uint64_t offered = 0;
    std::uint64_t fresh = 0;
    std::uint64_t failed_ops = 0;
    double abs_error = 0.0;  // sum |count - ground truth| over `scored` frames
    std::uint64_t scored = 0;
    digest outputs;  // per-frame (count, status, eps) or per-tick board state
    fleet_outcomes outcomes;  // fleet passes only
};

/// The fleet plus its observability, as a deployment wires them.
struct fleet_rig {
    hawc::obs::event_log log;
    hawc::fleet::fleet_manager fleet;

    fleet_rig(const workload_spec& spec, golden_models& models,
              hawc::replay::container_reader& reader);
};

struct loaded {
    std::unique_ptr<golden_models> models;
    std::unique_ptr<hawc::replay::container_reader> reader;
};

/// Whether pole `pole`'s sensor sends nothing at `tick` of a replay of
/// `ticks` frames.
bool pole_silent(const workload_spec& spec, std::size_t pole, std::uint64_t tick,
                 std::uint64_t ticks);

pass_result pole_pass(const workload_spec& spec, golden_models& models,
                      hawc::replay::container_reader& reader, layer_probe* probe);
pass_result fleet_pass(const workload_spec& spec, golden_models& models,
                       hawc::replay::container_reader& reader, layer_probe* probe);
/// pole_pass or fleet_pass, by workload kind.
pass_result run_pass(const workload_spec& spec, golden_models& models,
                     hawc::replay::container_reader& reader, layer_probe* probe = nullptr);

/// Load the three golden artifacts, construct the supervisor or the fleet
/// with its obs sinks, and open the container; returns seconds taken.
double set_up(const workload_spec& spec, const std::filesystem::path& golden,
              const std::filesystem::path& corpus, loaded& out);

}  // namespace replaybench
