// Fleet occupancy service: campus-scale multi-pole supervision end to
// end. Six blue-light poles stream synthetic walkway frames through
// lossy pole links into their own supervised fault domains; two links
// drop/delay/corrupt traffic, one pole's classifier is flaky, and one
// pole goes completely dead mid-run. The fleet watchdog quarantines and
// restarts the sick poles with capped exponential backoff while the
// occupancy board keeps publishing a staleness-bounded aggregate — the
// whole campus never stops answering "how many people are out there?".
//
//   fleet_service [ticks]        (default 600)

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "fleet/fleet_manager.hpp"
#include "nn/kernels/kernels.hpp"
#include "obs/build_info.hpp"
#include "telemetry/export.hpp"

using namespace hawc;

namespace {

// Cheap deterministic stand-in for the trained HAWC model: humans are
// tall-ish compact clusters. Stateless, hence safe to share across the
// poles running in parallel.
class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

// A synthetic pole capture: ground plane plus person-sized blobs.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 400; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 120; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return cloud;
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t ticks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 600;

    const extent_classifier classifier;

    std::vector<fleet::pole_setup> setups;
    for (std::size_t i = 0; i < 6; ++i) {
        fleet::pole_setup p;
        // Two appends: GCC 12's -Wrestrict false-positives on
        // operator+(const char*, std::string&&) at -O3.
        p.pole_id = "p";
        p.pole_id += std::to_string(i);
        p.seed = 9000 + i;
        p.primary = &classifier;
        p.watchdog.max_consecutive_dropped = 4;
        setups.push_back(std::move(p));
    }
    // Pole 2: a lossy, corrupting link.
    setups[2].link.drop_prob = 0.2;
    setups[2].link.delay_prob = 0.2;
    setups[2].link.corrupt_prob = 0.1;
    // Pole 3: heavy reordering and duplication.
    setups[3].link.reorder_prob = 0.3;
    setups[3].link.duplicate_prob = 0.3;
    // Pole 4 goes silent mid-run: the hung-pole watchdog quarantines it
    // and probes it back to life with capped exponential backoff.
    setups[4].watchdog.max_silent_ticks = 5;

    fleet::fleet_config cfg;
    fleet::fleet_manager campus{cfg, setups};

    std::cout << "Streaming " << ticks << " ticks across " << campus.pole_count()
              << " poles (pole 2 lossy+corrupting, pole 3 reordering, pole 4\n"
              << "goes dead for a stretch, pole 5 sends truncated frames)...\n\n";

    rng traffic{424242};
    for (std::uint64_t t = 0; t < ticks; ++t) {
        for (std::size_t i = 0; i < campus.pole_count(); ++i) {
            // Pole 4 dies for the middle third of the run: its watchdog
            // quarantines it and the ladder serves stale, then excludes.
            if (i == 4 && t > ticks / 3 && t < 2 * ticks / 3) continue;
            fleet::link_message msg;
            msg.frame_index = t;
            const auto people = static_cast<std::size_t>(
                1.5 + 1.5 * std::sin(0.05 * static_cast<double>(t) +
                                     static_cast<double>(i)));
            msg.cloud = synth_frame(traffic, people);
            // Pole 5's sensor truncates frames half the time: the
            // supervisor drops them and the stale-count rung answers.
            if (i == 5 && t % 2 == 0) {
                point_cloud stub;
                for (std::size_t k = 0; k < 8 && k < msg.cloud.size(); ++k) {
                    stub.push_back(msg.cloud[k]);
                }
                msg.cloud = stub;
            }
            campus.submit(i, std::move(msg));
        }
        campus.tick();

        if ((t + 1) % std::max<std::uint64_t>(1, ticks / 10) == 0) {
            const fleet::occupancy_snapshot snap = campus.snapshot();
            std::cout << "  tick " << snap.tick << ": aggregate=" << snap.aggregate
                      << " included=" << snap.included << "/" << snap.poles.size()
                      << " [";
            for (std::size_t i = 0; i < snap.poles.size(); ++i) {
                std::cout << (i > 0 ? " " : "") << to_string(snap.poles[i].rung)[0];
            }
            std::cout << "]\n";
        }
    }

    const fleet::occupancy_snapshot final_snap = campus.snapshot();
    std::cout << "\nFinal fleet state (tick " << final_snap.tick << "):\n";
    for (std::size_t i = 0; i < campus.pole_count(); ++i) {
        const fleet::pole_runtime& p = campus.pole(i);
        std::cout << "  " << p.id() << ": state=" << to_string(p.state())
                  << " rung=" << to_string(final_snap.poles[i].rung)
                  << " count=" << final_snap.poles[i].count
                  << " processed=" << p.stats().processed
                  << " restarts=" << p.stats().restarts
                  << " checksum_rejects=" << p.stats().checksum_failures << "\n";
    }
    std::cout << "\nStaleness bound (" << cfg.exclude_after_ticks << " ticks) holds: "
              << (final_snap.within_staleness(final_snap.tick, cfg.exclude_after_ticks)
                      ? "yes"
                      : "NO")
              << "\n";

    std::cout << "\nPer-pole metrics scrape (excerpt):\n";
    obs::register_build_info(campus.metrics());  // includes the ISA gauges
    const std::string prom = telemetry::to_prometheus(campus.metrics());
    std::size_t shown = 0;
    std::size_t pos = 0;
    while (shown < 16 && pos < prom.size()) {
        const std::size_t eol = prom.find('\n', pos);
        const std::string line = prom.substr(pos, eol - pos);
        pos = eol == std::string::npos ? prom.size() : eol + 1;
        if (line.find("hawc_pole_frames_total") != std::string::npos ||
            line.find("hawc_kernel_isa") != std::string::npos ||
            line.find("hawc_build_info") != std::string::npos ||
            line.find("hawc_fleet_aggregate") != std::string::npos) {
            std::cout << "  " << line << "\n";
            ++shown;
        }
    }
    return 0;
}
