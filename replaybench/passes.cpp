#include "passes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/timer.hpp"
#include "replay/replay_driver.hpp"

namespace replaybench {

namespace {

constexpr std::uint64_t fleet_drain_ticks = 8;  // flush delayed link messages and inboxes
constexpr std::size_t kept_span_limit = 50000;

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double us_of(const hawc::stopwatch& sw) { return sw.elapsed_ms() * 1000.0; }

std::vector<hawc::fleet::pole_setup> pole_setups(const workload_spec& spec, golden_models& models,
                                                 hawc::replay::container_reader& reader) {
    std::vector<hawc::fleet::pole_setup> poles;
    for (std::uint32_t s = 0; s < reader.stream_count(); ++s) {
        hawc::fleet::pole_setup p;
        p.pole_id = "pole";
        p.pole_id += std::to_string(s);
        p.seed = reader.stream(s).base_seed;
        p.supervisor = supervisor_for(spec);
        if (s < spec.pole_plan.size()) {
            p.link = spec.pole_plan[s].link;
            p.watchdog = spec.pole_plan[s].watchdog;
        }
        p.primary = &models.int8;
        p.fallback = &models.fp32;
        poles.push_back(std::move(p));
    }
    return poles;
}

}  // namespace

void span_probe::drain(std::size_t i, std::vector<std::pair<std::uint64_t, double>>* frame_spans) {
    if (sinks[i].recorded() > sinks[i].capacity()) {
        throw std::runtime_error{"trace sink wrapped: a pass emitted more than " +
                                 std::to_string(sinks[i].capacity()) + " spans"};
    }
    std::vector<hawc::telemetry::span_record> spans = sinks[i].snapshot();
    sinks[i].clear();
    const auto ms = [](const hawc::telemetry::span_record& r) {
        return static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    };
    std::map<hawc::telemetry::span_id, double> child_ms;  // frame id -> stage span time
    std::map<hawc::telemetry::span_id, std::vector<double>> cluster_ms;  // classify id -> clusters
    for (const auto& r : spans) {
        const char* n = r.name;
        if (!std::strcmp(n, "ingest") || !std::strcmp(n, "eps_selection") ||
            !std::strcmp(n, "dbscan") || !std::strcmp(n, "classify")) {
            child_ms[r.parent] += ms(r);
            if (!std::strcmp(n, "ingest")) ingest_ms += ms(r);
        } else if (!std::strcmp(n, "classify_cluster")) {
            cluster_ms[r.parent].push_back(ms(r));
        }
    }
    for (const auto& r : spans) {
        if (std::strcmp(r.name, "frame") != 0) continue;
        ++frames;
        self_ms += ms(r) - child_ms[r.id];
        if (frame_spans != nullptr) frame_spans->emplace_back(r.start_ns, ms(r));
    }
    for (auto& [parent, durations] : cluster_ms) {
        if (durations.size() < 2) continue;
        const double slowest = *std::max_element(durations.begin(), durations.end());
        const double mid = median(durations);
        if (mid > 0.0) {
            cluster_skew += slowest / mid;
            ++skew_frames;
        }
    }
    for (const auto& r : spans) {
        if (kept.size() >= kept_span_limit) break;
        kept.push_back(r);
    }
}

fleet_rig::fleet_rig(const workload_spec& spec, golden_models& models,
                     hawc::replay::container_reader& reader)
    : fleet{hawc::fleet::fleet_config{}, pole_setups(spec, models, reader)} {
    fleet.attach_observability(log);
    fleet.enable_flight_recorders(hawc::obs::flight_recorder_config{});
    fleet.install_slo(hawc::fleet::default_fleet_slo_rules());
    for (std::size_t i = 0; i < fleet.pole_count(); ++i) fleet.pole(i).set_record_history(true);
}

pass_result pole_pass(const workload_spec& spec, golden_models& models,
                      hawc::replay::container_reader& reader, layer_probe* probe) {
    hawc::frame_supervisor supervisor{supervisor_for(spec), models.int8, &models.fp32};
    span_probe* spans = probe != nullptr ? probe->spans : nullptr;
    if (spans != nullptr) supervisor.set_trace_sink(&spans->sinks[0]);

    pass_result r;
    const auto& info = reader.stream(0);
    r.latency_ms.reserve(static_cast<std::size_t>(info.frame_count));
    const std::uint64_t chunks_before = reader.chunks_decoded();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < info.frame_count; ++i) {
        hawc::stopwatch read_sw;
        const hawc::replay::frame_record& frame = reader.frame(0, i);
        if (probe != nullptr) {
            probe->read_us += us_of(read_sw);
            ++probe->reads;
        }
        hawc::rng random{hawc::replay::frame_seed(info.base_seed, static_cast<std::size_t>(i))};
        hawc::stopwatch sw;
        const hawc::frame_report report = supervisor.process(frame.cloud, random);
        r.latency_ms.push_back(sw.elapsed_ms());

        ++r.frames_counted;
        ++r.offered;
        const bool fresh = report.status != hawc::frame_status::dropped;
        if (fresh) {
            ++r.fresh;
        } else {
            ++r.failed_ops;
        }
        const double truth = frame.ground_truth;
        r.abs_error += std::abs(static_cast<double>(report.count) - truth);
        ++r.scored;
        r.outputs.add(report.count);
        r.outputs.add(static_cast<std::uint64_t>(report.status));
        r.outputs.add_double(report.chosen_eps);
    }
    r.wall_s = seconds_since(t0);
    if (spans != nullptr) spans->drain(0);
    if (probe != nullptr) {
        ++probe->passes;
        probe->chunks_decoded += reader.chunks_decoded() - chunks_before;
        probe->health.add(supervisor.health());
    }
    return r;
}

bool pole_silent(const workload_spec& spec, std::size_t pole, std::uint64_t tick,
                 std::uint64_t ticks) {
    return pole < spec.pole_plan.size() && spec.pole_plan[pole].silent_middle_third &&
           tick > ticks / 3 && tick < 2 * ticks / 3;
}

pass_result fleet_pass(const workload_spec& spec, golden_models& models,
                       hawc::replay::container_reader& reader, layer_probe* probe) {
    fleet_rig rig{spec, models, reader};
    hawc::fleet::fleet_manager& campus = rig.fleet;
    const std::size_t poles = campus.pole_count();
    span_probe* spans = probe != nullptr ? probe->spans : nullptr;
    if (spans != nullptr) {
        for (std::size_t i = 0; i < poles; ++i) campus.pole(i).supervisor().set_trace_sink(&spans->sinks[i]);
    }
    if (reader.cache_capacity() < poles) reader.set_cache_capacity(poles);

    std::uint64_t frames = 0;
    for (std::uint32_t s = 0; s < poles; ++s) frames = std::max(frames, reader.frame_count(s));

    pass_result r;
    r.latency_ms.reserve(static_cast<std::size_t>(frames));
    std::vector<std::uint32_t> truth(poles, 0);
    std::vector<bool> offered_now(poles, false);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stale_mark(poles);  // (epoch, served)
    std::vector<std::uint64_t> tick_start_ns;  // traced passes: maps frame spans to ticks
    std::uint64_t stale = 0;
    std::uint64_t version = campus.board().read().version;
    const std::uint64_t chunks_before = reader.chunks_decoded();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t t = 0; t < frames + fleet_drain_ticks; ++t) {
        const bool feeding = t < frames;
        for (std::uint32_t s = 0; s < poles; ++s) {
            offered_now[s] = feeding && t < reader.frame_count(s) && !pole_silent(spec, s, t, frames);
            if (!offered_now[s]) continue;
            hawc::stopwatch read_sw;
            const hawc::replay::frame_record& record = reader.frame(s, t);
            hawc::fleet::link_message msg;
            msg.frame_index = t;
            msg.ground_truth = record.ground_truth;
            msg.cloud = record.cloud;
            if (probe != nullptr) {
                probe->read_us += us_of(read_sw);
                ++probe->reads;
            }
            truth[s] = record.ground_truth;
            hawc::stopwatch submit_sw;
            campus.submit(s, std::move(msg));
            if (probe != nullptr) {
                probe->submit_us += us_of(submit_sw);
                ++probe->submits;
            }
            ++r.offered;
        }
        for (std::size_t i = 0; i < poles; ++i) {
            const hawc::health_counters h = campus.pole(i).supervisor().health();
            stale_mark[i] = {h.epoch, h.stale_counts_served};
        }

        if (spans != nullptr) tick_start_ns.push_back(hawc::telemetry::steady_now_ns());
        hawc::stopwatch sw;
        campus.tick();
        if (feeding) r.latency_ms.push_back(sw.elapsed_ms());

        for (std::size_t i = 0; i < poles; ++i) {
            const hawc::health_counters h = campus.pole(i).supervisor().health();
            // A restart resets the counter; restart ticks process no frames.
            stale += h.epoch == stale_mark[i].first ? h.stale_counts_served - stale_mark[i].second
                                                    : h.stale_counts_served;
        }

        hawc::stopwatch board_sw;
        const hawc::fleet::occupancy_snapshot snap = campus.board().read();
        if (probe != nullptr) {
            probe->board_us += us_of(board_sw);
            ++probe->board_reads;
        }
        // A tick fails when the board it leaves is not its own or does
        // not add up: frames that go unanswered are failed_ratio's.
        std::uint64_t sum = 0;
        std::uint32_t included = 0;
        for (const auto& slot : snap.poles) {
            if (slot.rung == hawc::fleet::pole_rung::excluded) continue;
            sum += slot.count;
            ++included;
        }
        if (feeding && (snap.tick != campus.current_tick() || snap.version != version + 1 ||
                        snap.aggregate != sum || snap.included != included)) {
            ++r.failed_ops;
        }
        version = snap.version;
        r.outputs.add(snap.aggregate);
        for (std::size_t s = 0; s < poles; ++s) {
            r.outputs.add(snap.poles[s].count);
            r.outputs.add(static_cast<std::uint64_t>(snap.poles[s].rung));
            if (!offered_now[s]) continue;
            // The operator-visible answer for the frame offered this tick.
            r.abs_error += std::abs(static_cast<double>(snap.poles[s].count) - truth[s]);
            ++r.scored;
        }
    }
    r.wall_s = seconds_since(t0);

    if (spans != nullptr) {
        // Each pole's frame-span time per tick, then slowest over mean.
        std::vector<double> pole_ms(tick_start_ns.size() * poles, 0.0);
        std::vector<std::pair<std::uint64_t, double>> frame_spans;
        for (std::size_t i = 0; i < poles; ++i) {
            frame_spans.clear();
            spans->drain(i, &frame_spans);
            for (const auto& [start_ns, ms] : frame_spans) {
                const auto next = std::upper_bound(tick_start_ns.begin(), tick_start_ns.end(), start_ns);
                if (next == tick_start_ns.begin()) continue;
                const auto tick = static_cast<std::size_t>(next - tick_start_ns.begin() - 1);
                pole_ms[tick * poles + i] += ms;
            }
        }
        for (std::size_t t = 0; t < tick_start_ns.size(); ++t) {
            const auto first = pole_ms.begin() + static_cast<std::ptrdiff_t>(t * poles);
            const auto last = first + static_cast<std::ptrdiff_t>(poles);
            const double sum = std::accumulate(first, last, 0.0);
            if (sum <= 0.0) continue;
            probe->pole_skew += *std::max_element(first, last) / (sum / static_cast<double>(poles));
            ++probe->skew_ticks;
        }
    }

    for (std::size_t i = 0; i < poles; ++i) {
        for (const auto& h : campus.pole(i).history()) {
            r.outputs.add(h.frame_index);
            r.outputs.add(h.count);
            r.outputs.add(static_cast<std::uint64_t>(h.status));
        }
        r.frames_counted += campus.pole(i).stats().processed;
    }
    r.outcomes = collect_outcomes(campus, r.offered, stale);
    r.fresh = r.outcomes.fresh;
    r.offered = r.outcomes.offered();
    if (probe != nullptr) {
        ++probe->passes;
        probe->chunks_decoded += reader.chunks_decoded() - chunks_before;
        for (std::size_t i = 0; i < poles; ++i) {
            const auto& st = campus.pole(i).stats();
            probe->health.add(campus.pole(i).supervisor().health());
            probe->shed += st.shed_inbox_overflow;
            probe->checksum_failures += st.checksum_failures;
            probe->quarantines += st.quarantines;
        }
        probe->events_published += rig.log.published();
        probe->events_suppressed += rig.log.suppressed();
        probe->postmortems += campus.collect_postmortems().size();
    }
    return r;
}

pass_result run_pass(const workload_spec& spec, golden_models& models,
                     hawc::replay::container_reader& reader, layer_probe* probe) {
    return spec.kind == workload_kind::fleet ? fleet_pass(spec, models, reader, probe)
                                             : pole_pass(spec, models, reader, probe);
}

double set_up(const workload_spec& spec, const std::filesystem::path& golden,
              const std::filesystem::path& corpus, loaded& out) {
    hawc::stopwatch sw;
    auto models = std::make_unique<golden_models>(golden);
    auto reader = std::make_unique<hawc::replay::container_reader>(corpus);
    if (spec.kind == workload_kind::fleet) {
        fleet_rig rig{spec, *models, *reader};
    } else {
        hawc::frame_supervisor supervisor{supervisor_for(spec), models->int8, &models->fp32};
    }
    const double seconds = sw.elapsed_ms() / 1000.0;
    out.models = std::move(models);
    out.reader = std::move(reader);
    return seconds;
}

}  // namespace replaybench
