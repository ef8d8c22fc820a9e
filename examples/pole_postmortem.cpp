// Flight-recorder drill: an eight-pole campus fleet with full
// observability — structured event log, per-pole black-box recorders,
// and SLO alerting — runs a chaos soak in which one pole's sensor dies
// mid-run. The watchdog quarantines it, the flight recorder dumps a
// checksummed postmortem bundle, and this program then does exactly what
// an on-call engineer would: saves the bundle, reloads it, and replays
// the recorded frames bit-exactly through the standard replay driver
// against a fresh supervisor. Meanwhile the SLO engine fires an
// exclusion alert during the incident and resolves it, with hysteresis,
// once the pole recovers.
//
//   pole_postmortem [ticks] [bundle-path]
//     (defaults: 240 ticks, bundle written to a temp file)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "fleet/fleet_manager.hpp"
#include "obs/build_info.hpp"
#include "obs/event_log.hpp"
#include "obs/postmortem.hpp"
#include "replay/frame_format.hpp"

using namespace hawc;

namespace {

class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

// Synthetic pole capture, pre-rounded to the recorded float32 precision:
// the flight recorder's bit-exactness contract requires the pole to have
// processed exactly the bytes the bundle stores.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 300; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 110; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return replay::round_to_recorded(cloud);
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t ticks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 240;
    const std::filesystem::path bundle_path =
        argc > 2 ? std::filesystem::path{argv[2]}
                 : std::filesystem::temp_directory_path() / "hawc_postmortem.hawcpm";

    const extent_classifier classifier;
    const std::size_t victim = 3;

    std::vector<fleet::pole_setup> setups;
    for (std::size_t i = 0; i < 8; ++i) {
        fleet::pole_setup p;
        // Two appends: GCC 12's -Wrestrict false-positives on
        // operator+(const char*, std::string&&) at -O3.
        p.pole_id = "pole-";
        p.pole_id += std::to_string(i);
        p.seed = 7000 + i;
        p.primary = &classifier;
        p.supervisor = without_deadlines({.max_stale_frames = 2});
        p.watchdog.max_consecutive_dropped = 3;
        p.watchdog.backoff_base_ticks = 4;
        p.watchdog.backoff_cap_ticks = 16;
        p.watchdog.backoff_jitter_fraction = 0.0;
        p.watchdog.probation_recovery_streak = 2;
        setups.push_back(std::move(p));
    }
    // A little background chaos on two healthy poles, like a real campus.
    setups[1].link.delay_prob = 0.1;
    setups[6].link.duplicate_prob = 0.1;

    fleet::fleet_config cfg;
    cfg.stale_after_ticks = 3;
    cfg.exclude_after_ticks = 6;
    fleet::fleet_manager campus{cfg, setups};

    // Observability stack: shared event log (rate-limited, ring of 1024),
    // a flight recorder per pole, and drill-scale SLO rules.
    obs::event_log log{{.capacity = 1024, .tokens_per_tick = 16.0, .burst = 64.0}};
    log.bind_metrics(campus.metrics());
    campus.attach_observability(log);
    campus.enable_flight_recorders({.frame_capacity = 8});
    campus.install_slo(obs::parse_slo_rules(
        "alert poles_excluded if value(hawc_fleet_excluded_poles) > 0 "
        "for 2 resolve 4 severity error\n"
        "alert fleet_drop_burn if "
        "ratio(hawc_fleet_frames_dropped_total/hawc_fleet_frames_total) > 0.5 "
        "window 8/32 resolve 8 severity critical\n"));
    obs::register_build_info(campus.metrics(), &log);

    const obs::build_info build = obs::current_build_info();
    std::cout << "hawc " << build.version << " (" << build.compiler << ", isa "
              << build.isa << ", sanitizer " << build.sanitizer << ")\n"
              << "Streaming " << ticks << " ticks across 8 poles; pole-" << victim
              << "'s sensor dies for the middle third of the run.\n\n";

    rng traffic{90210};
    std::vector<obs::postmortem_bundle> bundles;
    bool fired = false;
    bool resolved_after_fire = false;
    for (std::uint64_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < campus.pole_count(); ++i) {
            fleet::link_message msg;
            msg.frame_index = t;
            const auto people = static_cast<std::size_t>(
                1.5 + 1.5 * std::sin(0.07 * static_cast<double>(t) +
                                     static_cast<double>(i)));
            // The victim's sensor returns nothing mid-run: truncated
            // frames -> dropped -> watchdog quarantine -> recorder dump.
            if (i == victim && t > ticks / 3 && t < 2 * ticks / 3) {
                msg.cloud = {};
            } else {
                msg.cloud = synth_frame(traffic, people);
            }
            campus.submit(i, std::move(msg));
        }
        campus.tick();

        const obs::alert_state* excluded = campus.slo()->find("poles_excluded");
        fired = fired || excluded->firing;
        resolved_after_fire =
            resolved_after_fire ||
            (excluded->fired_count > 0 && excluded->resolved_count > 0 &&
             !excluded->firing);

        auto fresh = campus.collect_postmortems();
        for (auto& bundle : fresh) {
            std::cout << "  tick " << t << ": postmortem from " << bundle.pole_id
                      << " (" << to_string(bundle.trigger) << ", "
                      << bundle.frames.size() << " frames)\n";
            bundles.push_back(std::move(bundle));
        }
    }

    std::cout << "\nFleet health: " << campus.fleet_health().render() << "\n"
              << "Events recorded: " << log.published() << " (suppressed "
              << log.suppressed() << ")\n";
    std::cout << "Alert poles_excluded: "
              << (fired && resolved_after_fire ? "fired and resolved"
                                               : "DID NOT complete its cycle")
              << "\n";

    if (bundles.empty()) {
        std::cout << "FAIL: no postmortem bundle was produced\n";
        return 1;
    }

    // Save -> reload -> replay the first quarantine bundle, the exact
    // workflow a field postmortem uses. The reload proves the checksummed
    // envelope round-trips; the replay proves bit-exactness.
    const obs::postmortem_bundle& bundle = bundles.front();
    obs::save_postmortem_file(bundle_path, bundle);
    const obs::postmortem_bundle reloaded = obs::load_postmortem_file(bundle_path);
    std::cout << "\nBundle " << bundle_path.string() << ": "
              << std::filesystem::file_size(bundle_path) << " bytes, "
              << reloaded.frames.size() << " frames from " << reloaded.pole_id
              << ", trigger " << to_string(reloaded.trigger) << "\n";
    std::cout << "Last events before the dump (tail of the bundle's JSONL):\n";
    const std::string& jsonl = reloaded.events_jsonl;
    std::size_t shown = 0;
    for (std::size_t pos = jsonl.rfind('\n', jsonl.size() - 2);
         shown < 3 && pos != std::string::npos;
         pos = pos == 0 ? std::string::npos : jsonl.rfind('\n', pos - 1), ++shown) {
        std::cout << "  " << jsonl.substr(pos + 1, jsonl.find('\n', pos + 1) - pos - 1)
                  << "\n";
    }

    frame_supervisor fresh{setups[victim].supervisor, classifier, nullptr};
    const obs::postmortem_replay_result verdict = obs::replay_postmortem(reloaded, fresh);
    std::cout << "\npostmortem replay: "
              << (verdict.bit_exact ? "bit-exact" : "DIVERGED") << " ("
              << verdict.matches << "/" << verdict.frames << " frames match)\n";

    std::filesystem::remove(bundle_path);
    return verdict.bit_exact && fired && resolved_after_fire ? 0 : 1;
}
