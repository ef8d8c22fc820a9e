#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "replay/container.hpp"
#include "replay/model_io.hpp"
#include "replay/replay_driver.hpp"

namespace replaybench {

namespace {

// The golden model's architecture (examples/parity_checker.cpp records
// data/golden with exactly this skeleton; the weight files carry no
// configuration of their own).
constexpr std::uint64_t golden_model_seed = 11;
constexpr std::size_t golden_target_points = 225;

hawc::hawc_config golden_model_config() {
    hawc::hawc_config config;
    config.features.upsample.target_points = golden_target_points;
    config.features.projection.target_points = golden_target_points;
    config.conv_channels[0] = 8;
    config.conv_channels[1] = 12;
    config.conv_channels[2] = 16;
    config.hidden_units = 32;
    return config;
}

std::vector<workload_spec> make_workloads() {
    std::vector<workload_spec> table;

    // The paper's everyday walkway on a single-core edge box: small
    // frames, so per-frame fixed costs are a visible share.
    workload_spec walkway;
    walkway.name = "walkway_sparse";
    walkway.capture = golden_capture();
    walkway.min_people = 0;
    walkway.max_people = 6;
    walkway.frames_per_stratum = 90;
    walkway.single_thread = true;
    table.push_back(walkway);

    // The deployment sensor at crowd density: clustering and the
    // per-cluster fan-out dominate, merged clusters take the k-means split.
    workload_spec crowd;
    crowd.name = "crowd_dense";
    crowd.capture = hawc::capture_config{};
    crowd.min_people = 20;
    crowd.max_people = 40;
    crowd.frames_per_stratum = 5;  // 105 frames: ten beyond the p90
    table.push_back(crowd);

    // Four poles with faulty sensors behind lossy links: the same stages
    // run in parallel across poles, plus every fault and obs path. The
    // per-pole fault plan is examples/fleet_service.cpp's: a healthy
    // pole, a lossy corrupting link, a reordering duplicating link, and a
    // pole that goes silent for the middle third, with its watchdog
    // settings. Its truncated-frame pole is replaced by the
    // data/golden/degraded sensor fault mix on every pole.
    workload_spec fleet;
    fleet.name = "fleet_faulty";
    fleet.kind = workload_kind::fleet;
    fleet.capture = golden_capture();
    fleet.min_people = 0;
    fleet.max_people = 6;
    fleet.poles = 4;
    fleet.frames_per_stratum = 60;
    fleet.sensor_faults = true;
    fleet.pole_plan.resize(fleet.poles);
    for (pole_faults& p : fleet.pole_plan) p.watchdog.max_consecutive_dropped = 4;
    fleet.pole_plan[1].link.drop_prob = 0.2;
    fleet.pole_plan[1].link.delay_prob = 0.2;
    fleet.pole_plan[1].link.corrupt_prob = 0.1;
    fleet.pole_plan[2].link.reorder_prob = 0.3;
    fleet.pole_plan[2].link.duplicate_prob = 0.3;
    fleet.pole_plan[3].watchdog.max_silent_ticks = 5;
    fleet.pole_plan[3].silent_middle_third = true;
    table.push_back(fleet);
    return table;
}

// Fault mix of data/golden/degraded.
hawc::fault_injection_config degraded_faults() {
    hawc::fault_injection_config faults;
    faults.beam_dropout_prob = 0.25;
    faults.range_jitter_prob = 0.25;
    faults.non_finite_prob = 0.25;
    faults.duplicate_points_prob = 0.25;
    return faults;
}

}  // namespace

const workload_spec& find_workload(std::string_view name) {
    static const std::vector<workload_spec> table = make_workloads();
    for (const auto& spec : table) {
        if (spec.name == name) return spec;
    }
    throw std::invalid_argument{"unknown workload: " + std::string{name}};
}

std::size_t online_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t pool_size(const workload_spec& spec) {
    const std::size_t cpus = online_cpus();
    return spec.single_thread ? 1 : std::clamp<std::size_t>(cpus - 1, 1, 4);
}

hawc::capture_config golden_capture() {
    hawc::capture_config config;
    config.sensor.channels = 24;
    config.sensor.azimuth_steps = 720;
    config.min_cluster_points = 10;
    return config;
}

hawc::supervisor_config supervisor_for(const workload_spec& spec) {
    hawc::supervisor_config config;
    config.capture = spec.capture;
    return config;
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t stream) {
    return hawc::replay::frame_seed(seed, stream);
}

void generate_corpus(const workload_spec& spec, std::uint64_t seed,
                     const std::filesystem::path& out, std::size_t threads) {
    // One record_corpus call per (stream, people count): every seed gets
    // the same crowd-size mix, so cross-seed spread comes from placement
    // and sensor noise, not from how many heavy frames a seed happened
    // to draw.
    const std::size_t strata = spec.max_people - spec.min_people + 1;
    struct task {
        std::size_t stream = 0;
        std::size_t people = 0;
        hawc::replay::frame_corpus frames;
    };
    std::vector<task> tasks;
    for (std::size_t s = 0; s < spec.poles; ++s) {
        for (std::size_t k = 0; k < strata; ++k) tasks.push_back({s, spec.min_people + k, {}});
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(std::max<std::size_t>(1, threads));
    auto worker = [&](std::size_t lane) {
        try {
            for (std::size_t i = next++; i < tasks.size(); i = next++) {
                hawc::replay::record_config rc;
                rc.name = spec.name;
                rc.seed = hawc::replay::frame_seed(stream_seed(seed, tasks[i].stream),
                                                   0x5eed0000 + tasks[i].people);
                rc.frames = spec.frames_per_stratum;
                rc.min_people = tasks[i].people;
                rc.max_people = tasks[i].people;
                rc.max_objects = spec.max_objects;
                rc.capture = spec.capture;
                rc.inject_faults = spec.sensor_faults;
                rc.faults = degraded_faults();
                tasks[i].frames = hawc::replay::record_corpus(rc);
            }
        } catch (...) {
            errors[lane] = std::current_exception();
        }
    };
    {
        std::vector<std::jthread> pool;
        for (std::size_t lane = 1; lane < errors.size(); ++lane) pool.emplace_back(worker, lane);
        worker(0);
    }
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }

    std::filesystem::create_directories(out.parent_path());
    const std::filesystem::path partial = out.string() + ".partial";
    {
        std::ofstream file{partial, std::ios::binary | std::ios::trunc};
        if (!file) throw std::runtime_error{"cannot write " + partial.string()};
        const auto kind = spec.kind == workload_kind::fleet
                              ? hawc::replay::container_kind::corpus_set
                              : hawc::replay::container_kind::corpus;
        hawc::replay::container_writer writer{file, kind, spec.name};
        for (std::size_t s = 0; s < spec.poles; ++s) {
            const std::string pole_id =
                spec.kind == workload_kind::fleet ? "pole" + std::to_string(s) : std::string{};
            const std::uint32_t stream = writer.add_stream(pole_id, spec.name, stream_seed(seed, s));
            // Shuffle the stratified frames so crowd size does not follow
            // a sawtooth along the stream. The shuffle does not depend on
            // the seed: every seed puts the same crowd sizes at the same
            // positions (and so into the same fleet ticks), and seeds
            // differ only in placement and sensor noise.
            std::vector<std::pair<std::size_t, std::size_t>> order;  // (task, frame)
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                if (tasks[i].stream != s) continue;
                for (std::size_t f = 0; f < tasks[i].frames.size(); ++f) order.emplace_back(i, f);
            }
            hawc::rng shuffle{hawc::replay::frame_seed(0x5f1e, s)};
            for (std::size_t i = order.size(); i > 1; --i) {
                std::swap(order[i - 1], order[shuffle.uniform_index(i)]);
            }
            for (const auto& [t, f] : order) writer.append(stream, tasks[t].frames.frames[f]);
        }
        writer.finalize();
        file.flush();
        if (!file) throw std::runtime_error{"failed writing " + partial.string()};
    }
    std::filesystem::rename(partial, out);
}

golden_models::golden_models(const std::filesystem::path& dir)
    : pool{hawc::replay::load_object_pool_file(dir / "object.pool")},
      fp32{[this] {
          hawc::rng skeleton{golden_model_seed};  // weights are overwritten below
          return hawc::hawc_model{golden_model_config(), pool, skeleton};
      }()},
      int8{hawc::replay::load_quantized_file(dir / "hawc_int8.qmodel"),
           [this](const hawc::point_cloud& cluster, hawc::rng& random) {
               return fp32.extractor().extract(cluster, random);
           },
           "HAWC-int8"} {
    hawc::replay::load_weights_file(dir / "hawc_fp32.weights", fp32.network());
}

double fleet_outcomes::failed_ratio() const {
    const std::uint64_t n = offered();
    return n == 0 ? 0.0 : static_cast<double>(n - fresh) / static_cast<double>(n);
}

fleet_outcomes collect_outcomes(const hawc::fleet::fleet_manager& fleet,
                                std::uint64_t submitted, std::uint64_t stale) {
    fleet_outcomes o;
    o.submitted = submitted;
    o.stale = stale;
    std::uint64_t processed = 0;
    for (std::size_t i = 0; i < fleet.pole_count(); ++i) {
        const auto& pole = fleet.pole(i);
        const auto& st = pole.stats();
        const auto& link = pole.link();
        processed += st.processed;
        o.fresh += st.good_frames;
        o.duplicated += link.duplicated;
        o.deduped += st.duplicates_dropped;
        o.lost += link.dropped + st.checksum_failures;
        o.shed += st.shed_inbox_overflow;
        o.rejected += st.rejected_quarantined + st.discarded_on_quarantine;
        o.pending += link.sent - link.dropped + link.duplicated - link.delivered;
        o.pending += pole.inbox_depth();
    }
    // Processed frames that did not come back fresh were answered stale or
    // with zero; the stale count is the caller's.
    const std::uint64_t unanswered = processed - o.fresh;
    o.dropped = unanswered >= stale ? unanswered - stale : 0;
    return o;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace replaybench
