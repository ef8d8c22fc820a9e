// Resilient counting service: one pole's streaming runtime end to end,
// with the observability surface on. Trains a compact HAWC, quantizes it
// to int8 (the primary edge model, made sporadically flaky to stand in
// for dequantization faults), keeps the fp32 model as the per-cluster
// fallback, then streams ten minutes of walkway traffic through the
// frame supervisor while a sensor fault injector corrupts captures with
// every failure mode it knows. The service never crashes; it degrades,
// and its own outputs show exactly how:
//
//   * a status line per minute and a Prometheus text scrape excerpt of
//     the supervisor registry every 60 s (frame/fallback counters, pool
//     utilization, kernel ISA, build info),
//   * a JSON snapshot of the registry with p50/p95/p99 per stage,
//   * a Chrome trace_event file (telemetry_trace.json) of the per-frame
//     span tree — load it in chrome://tracing or Perfetto,
//   * the health counters.

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "classifiers/hawc_model.hpp"
#include "classifiers/quantized_classifier.hpp"
#include "common/thread_pool.hpp"
#include "obs/build_info.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/supervisor.hpp"
#include "sim/trajectory.hpp"
#include "telemetry/telemetry.hpp"

using namespace hawc;

namespace {

/// The scrape lines an operator glances at first.
void print_scrape_excerpt(telemetry::metrics_registry& metrics, double t) {
    // A scraper would GET this payload from the pole's /metrics endpoint.
    telemetry::record_pool_gauges(metrics, global_pool());
    obs::register_build_info(metrics);  // includes the kernel ISA gauges
    const std::string scrape = telemetry::to_prometheus(metrics);
    std::printf("\n  -- Prometheus scrape @ %.0fs (excerpt) --\n", t);
    for (std::size_t pos = 0; pos < scrape.size();) {
        std::size_t eol = scrape.find('\n', pos);
        if (eol == std::string::npos) eol = scrape.size();
        const std::string line = scrape.substr(pos, eol - pos);
        for (const char* prefix : {"hawc_frames_", "hawc_fallback_", "hawc_pool_utilization",
                                   "hawc_kernel_isa", "hawc_build_info"}) {
            if (line.rfind(prefix, 0) == 0) {
                std::cout << "  " << line << "\n";
                break;
            }
        }
        pos = eol + 1;
    }
    std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    // --json: suppress the narrative log and emit the final health
    // counters as one JSON object on stdout (for scripted consumers).
    bool json_output = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) json_output = true;
    }

    // ---- Train the fp32 reference and quantize the edge model ----
    if (!json_output)
        std::cout << "Preparing the classifiers (fp32 reference + int8 edge model)...\n";
    single_person_dataset_config ds_cfg;
    ds_cfg.human_samples = 400;
    ds_cfg.object_samples = 400;
    ds_cfg.capture.min_cluster_points = 20;
    const single_person_dataset ds = build_single_person_dataset(ds_cfg);

    rng random{7};
    hawc_config model_cfg;
    model_cfg.features.upsample.target_points = ds.target_points;
    model_cfg.features.projection.target_points = ds.target_points;
    model_cfg.training.epochs = 15;
    model_cfg.training.lr_decay_factor = 0.3;
    model_cfg.training.lr_decay_period = 8;
    hawc_model model{model_cfg, ds.pool, random};
    model.train(ds.train, nullptr, random);

    quantized_model q = model.quantize(ds.train, random, 100);
    const auto& extractor = model.extractor();
    const quantized_classifier int8{q,
                                    [&extractor](const point_cloud& c, rng& rr) {
                                        return extractor.extract(c, rr);
                                    },
                                    "HAWC-int8"};
    // Sporadic dequantization faults on the primary: roughly 1 in 50
    // cluster classifications throws, exercising the float-model rung.
    const flaky_classifier primary{int8, 0.02};

    // ---- Supervisor: int8 primary, fp32 fallback, tracing on ----
    supervisor_config sup_cfg;
    sup_cfg.capture.min_cluster_points = 20;
    // A healthy scan of this walkway returns ~20k points; calibrate the
    // truncation detector to that so partial frames (UDP loss keeps at
    // most 10%) are dropped and answered by the stale-count rung.
    sup_cfg.min_raw_points = 4000;
    frame_supervisor supervisor{sup_cfg, primary, &model};

    telemetry::trace_sink sink{8192};
    supervisor.set_trace_sink(&sink);

    // ---- Stream fault-injected traffic ----
    if (!json_output)
        std::cout << "Streaming 10 minutes of walkway traffic through the supervisor\n"
                     "with sensor fault injection (dropout, jitter, NaN, truncation,\n"
                     "duplicates) at 10% per fault per frame...\n\n";
    const scanner sensor{sup_cfg.capture.sensor};
    fault_injection_config fi_cfg;
    fi_cfg.beam_dropout_prob = 0.1;
    fi_cfg.range_jitter_prob = 0.1;
    fi_cfg.non_finite_prob = 0.1;
    fi_cfg.truncated_frame_prob = 0.1;
    fi_cfg.duplicate_points_prob = 0.1;
    fault_injector injector{fi_cfg};

    rng traffic_rng{2025};
    const traffic_schedule traffic{traffic_rng, 600.0, /*arrivals_per_minute=*/12.0};

    if (!json_output) std::cout << "  time   status    count  notes\n";
    for (double t = 5.0; t < 600.0; t += 5.0) {
        const scene frame = traffic.scene_at(t, traffic_rng);
        const scan_result scan_data =
            sensor.scan(frame.primitives(), traffic_rng, sup_cfg.capture.scan);
        const point_cloud corrupted = injector.corrupt(scan_data.to_cloud(), traffic_rng);

        const frame_report report = supervisor.process(corrupted, traffic_rng);
        if (json_output) continue;

        // One line every minute keeps the log readable; the counters
        // below cover every frame.
        if (static_cast<int>(t) % 60 == 5) {
            std::string notes;
            if (report.used_fixed_eps) notes += " fixed-eps";
            if (report.used_float_fallback) notes += " float-fallback";
            if (report.served_stale) notes += " stale-count";
            for (const auto& f : report.failures) notes += " [" + f.describe() + "]";
            std::printf("  %5.0fs  %-8s  %5zu %s\n", t, to_string(report.status),
                        report.count, notes.c_str());
        }
        if (static_cast<int>(t) % 60 == 0) print_scrape_excerpt(supervisor.metrics(), t);
    }

    if (json_output) {
        std::cout << supervisor.health().to_json() << "\n";
        return 0;
    }

    // ---- Registry snapshot: counters and per-stage tail latency ----
    std::cout << "\n-- Registry JSON snapshot --\n"
              << telemetry::to_json(supervisor.metrics()) << "\n";

    // ---- Span tree -> Chrome trace file ----
    const auto spans = sink.snapshot();
    std::map<std::string, std::size_t> by_name;
    for (const auto& s : spans) ++by_name[s.name];
    std::cout << "\nRecorded " << sink.recorded() << " spans (" << spans.size()
              << " retained in the ring):\n";
    for (const auto& [name, n] : by_name) std::cout << "  " << name << " x" << n << "\n";
    std::ofstream{"telemetry_trace.json"} << telemetry::to_chrome_trace(spans);
    std::cout << "Wrote telemetry_trace.json — open it in chrome://tracing or "
                 "https://ui.perfetto.dev\nto see the per-frame span tree.\n";

    // ---- The service's health, as the bench harness would print it ----
    std::cout << "\nInjected faults: ";
    for (std::size_t k = 0; k < fault_kind_count; ++k) {
        std::cout << to_string(static_cast<fault_kind>(k)) << "="
                  << injector.injected(static_cast<fault_kind>(k))
                  << (k + 1 < fault_kind_count ? ", " : "\n");
    }
    std::cout << "Primary classifier faults raised: " << primary.faults_raised() << "\n";
    std::cout << "\n" << supervisor.health().summary();
    std::cout << "\nEvery frame accounted: "
              << (supervisor.health().accounted() ? "yes" : "NO") << "\n";
    return 0;
}
