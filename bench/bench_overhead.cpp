// Layered overhead of the production frame path on clean frames. Four
// layers replay the same pre-captured frames, each adding one piece on
// top of the layer before it:
//
//   0  the bare paper pipeline: ingest -> adaptive DBSCAN -> the
//      crowd_counter classification stage
//   1  frame_supervisor: + sanitization, duplicate removal, plausibility
//      checks, watchdog polls, health accounting and the metrics registry
//   2  + a trace sink (one span tree per frame)
//   3  + the pole-side obs stack: structured event log, a flight recorder
//      taking every frame into its black-box ring (by move, as
//      pole_runtime does), and an SLO engine sweeping its rules per frame
//
// Each layer is gated against the one below it: the supervisor may cost
// <= 5%, the trace sink <= 2% and the obs stack <= 2% per clean frame.
//
// Timing is interleaved min-of-passes, taken per frame. A pass walks the
// frames in blocks of eight; each block runs through all four layers in
// turn, so host drift hits every layer alike while each layer still runs
// warm over its block. The layer order rotates from block to block and
// alternates direction, so no layer always goes first or always follows
// the same neighbour (whose caches it would inherit). A layer's cost
// is the sum over frames of that frame's fastest pass: the minimum is the
// least noisy estimator on a shared machine. The spread column applies
// the same estimator to each of four disjoint groups of passes (pass p
// goes to group p % 4) and reports the range of the four overheads; each
// group holds a quarter of the passes, so the range overstates how far the
// full estimate moves. A gate is only meaningful while that spread sits
// under its budget. Every layer runs on
// the default global pool (HAWC_THREADS overrides its size), as production
// does: the counter fans clusters out over its lanes, and on the traced
// layers each worker's classify span contends for the one shared sink.

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "common/thread_pool.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "runtime/supervisor.hpp"
#include "sim/trajectory.hpp"
#include "telemetry/event.hpp"
#include "telemetry/telemetry.hpp"

using namespace hawc;

namespace {

struct timed_layer {
    const char* name;
    double budget_pct;  // gate against the layer below (unused for the base)
    // Process one delivered frame; returns its count.
    std::function<std::size_t(point_cloud&, rng&, std::uint64_t)> step;
    std::vector<std::vector<double>> frame_ms{};  // [pass][frame]
    std::size_t total = 0;

    // Sum over frames of each frame's fastest time among the passes p
    // with p % stride == offset.
    [[nodiscard]] double cost_ms(std::size_t offset, std::size_t stride) const {
        double sum = 0.0;
        for (std::size_t i = 0; i < frame_ms.front().size(); ++i) {
            double fastest = 1e300;
            for (std::size_t p = offset; p < frame_ms.size(); p += stride) {
                fastest = std::min(fastest, frame_ms[p][i]);
            }
            sum += fastest;
        }
        return sum;
    }
};

double overhead_pct(const timed_layer& l, const timed_layer& below, std::size_t offset,
                    std::size_t stride) {
    const double below_ms = below.cost_ms(offset, stride);
    return 100.0 * (l.cost_ms(offset, stride) - below_ms) / below_ms;
}

}  // namespace

int main() {
    bench::print_header("Runtime overhead",
                        "bare crowd_counter -> supervisor -> + trace sink -> + obs stack, "
                        "clean frames");

    // An untrained fp32 HAWC keeps the classification stage realistic
    // (full feature extraction + forward pass) without minutes of
    // training; every layer shares the exact same instance.
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = 40;
    ds_cfg.object_samples = 40;
    ds_cfg.capture.min_cluster_points = 20;
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);

    rng random{7};
    hawc_config model_cfg;
    model_cfg.features.upsample.target_points = ds.target_points;
    model_cfg.features.projection.target_points = ds.target_points;
    const hawc_model model{model_cfg, ds.pool, random};

    capture_config capture;
    capture.min_cluster_points = 20;
    supervisor_config sup_cfg;
    sup_cfg.capture = capture;

    // The three supervised layers share one frame_supervisor and switch
    // its trace and event sinks per frame (pointer stores), so they differ
    // only in what each layer adds. Separate instances would also differ
    // in heap layout, which moved the per-layer estimates by up to
    // +-1.5 pp from one process to the next.
    const crowd_counter bare{capture, model};
    const clusterer_fn adaptive = bench::adaptive_clusterer(capture);
    frame_supervisor supervised{sup_cfg, model};
    telemetry::trace_sink sink{16384};

    obs::event_log log{{.capacity = 256, .tokens_per_tick = 8.0, .burst = 32.0}};
    telemetry::tagging_event_sink tagger;
    tagger.set_target(&log);
    tagger.set_pole("bench-0");
    obs::flight_recorder recorder{{.frame_capacity = 16}, "bench-0", 11};
    recorder.attach_sources(&log, nullptr);
    obs::slo_engine slo{supervised.metrics(), supervised.metrics(),
                        obs::parse_slo_rules(
                            "alert drop_burn if "
                            "ratio(hawc_frames_dropped_total/hawc_frames_total) > 0.05 "
                            "window 8/32 resolve 8 severity error\n"
                            "alert p99_latency if p99(hawc_frame_ms) > 1e9 "
                            "severity warning\n"),
                        &log};

    // Identical clean frames for every layer, captured once. Sizing: at
    // 1280 frames x 12 passes on four pool lanes every spread stayed under
    // 1.7 pp over six runs on a 4-vCPU VM; at 640 frames the obs layer's
    // estimate moved 1.0-2.0% over four runs.
    const std::size_t frames = bench::scaled(1280, 16);
    const scanner sensor{capture.sensor};
    rng traffic_rng{2025};
    const double span_s = 10.0 + static_cast<double>(frames) * 4.5;  // arrivals cover every frame
    const traffic_schedule traffic{traffic_rng, span_s, /*arrivals_per_minute=*/12.0};
    std::vector<point_cloud> captures;
    captures.reserve(frames);
    for (std::size_t i = 0; i < frames; ++i) {
        const double t = 5.0 + static_cast<double>(i) * 4.5;
        const scene frame = traffic.scene_at(t, traffic_rng);
        captures.push_back(sensor.scan(frame.primitives(), traffic_rng, capture.scan).to_cloud());
    }

    // Each frame is delivered as a fresh owned copy (the copy a pole link
    // pays to hand over a frame) before its stopwatch starts, so every
    // layer is charged only for its own work. A fixed-seed rng per layer
    // and pass makes every layer draw identical samples.
    auto supervise = [&supervised](telemetry::trace_sink* trace) {
        return [&supervised, trace](point_cloud& delivered, rng& r, std::uint64_t) {
            supervised.set_trace_sink(trace);
            supervised.set_event_sink(nullptr);
            return supervised.process(delivered, r).count;
        };
    };
    std::array<timed_layer, 4> layers{{
        {"crowd_counter (bare)", 0.0,
         [&](point_cloud& delivered, rng& r, std::uint64_t) {
             return bench::count_with(bare, adaptive, delivered, r);
         }},
        {"frame_supervisor", 5.0, supervise(nullptr)},
        {"+ trace sink", 2.0, supervise(&sink)},
        {"+ event log, recorder, SLO", 2.0,
         [&](point_cloud& delivered, rng& r, std::uint64_t tick) {
             supervised.set_trace_sink(&sink);
             supervised.set_event_sink(&tagger);
             tagger.set_tick(tick);
             const supervisor_carry before = supervised.carry();
             const frame_report report = supervised.process(delivered, r);
             recorder.record(tick, static_cast<std::uint32_t>(report.count),
                             std::move(delivered), before, report);
             log.advance_tick(tick);
             slo.evaluate(tick);
             return report.count;
         }},
    }};

    const std::size_t block = 8;
    auto run_pass = [&](std::size_t pass) {
        std::array<rng, 4> streams{rng{11}, rng{11}, rng{11}, rng{11}};
        for (timed_layer& l : layers) {
            l.total = 0;
            l.frame_ms.emplace_back(frames, 0.0);
        }
        for (std::size_t lo = 0; lo < frames; lo += block) {
            for (std::size_t k = 0; k < layers.size(); ++k) {
                const std::size_t turn = pass + lo / block;
                const std::size_t slot = turn % 2 == 0 ? k : layers.size() - 1 - k;
                const std::size_t li = (turn / 2 + slot) % layers.size();
                timed_layer& l = layers[li];
                for (std::size_t i = lo; i < std::min(frames, lo + block); ++i) {
                    point_cloud delivered = captures[i];
                    stopwatch sw;
                    l.total += l.step(delivered, streams[li], i);
                    l.frame_ms.back()[i] = sw.elapsed_ms();
                }
            }
        }
    };
    run_pass(0);  // warm-up: allocator, caches
    for (timed_layer& l : layers) l.frame_ms.clear();
    const std::size_t passes = bench::scaled(12, 3);
    for (std::size_t p = 0; p < passes; ++p) run_pass(p);

    const std::size_t groups = std::min<std::size_t>(4, passes);
    std::cout << frames << " frames x " << passes << " interleaved passes per layer, "
              << global_thread_count() << " pool lanes; spread = min-max of the overhead "
              << "estimated from each of " << groups << " disjoint pass groups\n\n";
    text_table table{{"Layer", "Sum of frame minima (ms)", "Per frame (ms)", "Overhead (%)",
                      "Spread (pp)", "Budget (%)", "Count"}};
    bool within_budget = true;
    std::vector<std::string> verdicts;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const timed_layer& l = layers[i];
        const double cost_ms = l.cost_ms(0, 1);
        if (i == 0) {
            table.add_row({l.name, text_table::num(cost_ms),
                           text_table::num(cost_ms / static_cast<double>(frames)), "-", "-",
                           "-", std::to_string(l.total)});
            continue;
        }
        const timed_layer& below = layers[i - 1];
        const double pct = overhead_pct(l, below, 0, 1);
        double lowest = 1e300;
        double highest = -1e300;
        for (std::size_t g = 0; g < groups; ++g) {
            const double group_pct = overhead_pct(l, below, g, groups);
            lowest = std::min(lowest, group_pct);
            highest = std::max(highest, group_pct);
        }
        const double spread = highest - lowest;
        const bool ok = pct <= l.budget_pct;
        within_budget = within_budget && ok;
        const std::string budget = "<= " + text_table::num(l.budget_pct, 0);
        table.add_row({l.name, text_table::num(cost_ms),
                       text_table::num(cost_ms / static_cast<double>(frames)),
                       text_table::num(pct), text_table::num(spread), budget,
                       std::to_string(l.total)});
        verdicts.push_back(std::string{l.name} + ": " + text_table::num(pct) + "% (spread " +
                           text_table::num(spread) + " pp, budget " + budget + "%) " +
                           (ok ? "OK" : "OVER BUDGET") +
                           (spread >= l.budget_pct ? "; spread exceeds budget, inconclusive" : ""));
    }
    table.print(std::cout);
    std::cout << "\n";
    for (const std::string& v : verdicts) std::cout << v << "\n";

    // Sanity: identical inputs and seeds must count identically on every
    // supervised layer, the traced layers must have recorded spans, the
    // recorder must have seen every frame, and the SLO engine must have
    // swept. The bare counter is left out of the count check: the
    // supervisor's duplicate removal reorders clusters, and with them the
    // per-cluster rng streams (DESIGN.md §7).
    for (const timed_layer& l : layers) {
        if (&l != &layers[0] && l.total != layers[1].total) {
            std::cout << "\nFAIL: counts diverged at layer '" << l.name << "' (" << l.total
                      << " vs " << layers[1].total << ")\n";
            return 1;
        }
    }
    if (sink.recorded() == 0) {
        std::cout << "\nFAIL: the trace sink recorded no spans\n";
        return 1;
    }
    const std::size_t frames_run = frames * (passes + 1);
    if (recorder.frames_recorded() < frames_run) {
        std::cout << "\nFAIL: flight recorder missed frames (" << recorder.frames_recorded()
                  << " < " << frames_run << ")\n";
        return 1;
    }
    if (slo.evaluations() == 0) {
        std::cout << "\nFAIL: SLO engine never evaluated\n";
        return 1;
    }
    const auto& health = supervised.health();
    std::cout << "\nClean-run health: " << health.frames_ok << "/" << health.frames_total
              << " frames ok, " << (health.accounted() ? "all accounted" : "ACCOUNTING BROKEN")
              << "; spans recorded " << sink.recorded() << "; frames recorded "
              << recorder.frames_recorded() << ", events published " << log.published()
              << ", SLO evaluations " << slo.evaluations() << "\n";
    return within_budget ? 0 : 1;
}
