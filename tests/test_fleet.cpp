// Tests for the fleet fault-domain runtime: the lossy pole-link
// transport, the seqlock occupancy board, the pole watchdog state
// machine (quarantine -> backoff -> probation -> live), the fleet
// degradation ladder, replay parity of healthy poles against solo
// supervisors, and the multi-pole chaos soak.
//
// Determinism discipline: every test zeroes the supervisor's wall-clock
// deadlines (tick virtual time only) and drives per-frame rng streams
// from frame_seed, the same contract the replay parity harness pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "fleet/fleet_manager.hpp"
#include "replay/replay_driver.hpp"
#include "runtime/fault_injection.hpp"
#include "telemetry/export.hpp"

namespace hawc {
namespace {

// Cheap deterministic classifier (no CNN training in unit tests):
// humans are tall-ish, compact clusters. Stateless, so safe to share
// across poles.
class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

// Synthetic pole capture: ground plane plus person-sized blobs.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 220; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 100; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return cloud;
}

// Supervisor config for virtual-time tests: wall-clock watchdogs off so
// results are bit-exact on any machine, any load.
supervisor_config det_config() { return without_deadlines({}); }

// An in-memory corpus whose frames come from synth_frame — cheap enough
// for soaks, deterministic from base_seed alone.
replay::frame_corpus synth_corpus(std::uint64_t base_seed, std::size_t frames) {
    replay::frame_corpus corpus;
    corpus.name = "synth";
    corpus.base_seed = base_seed;
    rng r{base_seed ^ 0xc0ffeeull};
    for (std::size_t i = 0; i < frames; ++i) {
        replay::frame_record rec;
        const auto people = static_cast<std::size_t>(r.uniform_index(4));
        rec.ground_truth = static_cast<std::uint32_t>(people);
        rec.cloud = synth_frame(r, people);
        corpus.frames.push_back(std::move(rec));
    }
    return corpus;
}

fleet::link_message corpus_message(const replay::frame_corpus& corpus,
                                   std::size_t frame) {
    fleet::link_message msg;
    msg.frame_index = frame;
    msg.ground_truth = corpus.frames[frame].ground_truth;
    msg.cloud = corpus.frames[frame].cloud;
    return msg;
}

// Two appends: GCC 12's -Wrestrict false-positives on
// operator+(const char*, std::string&&) at -O3 (see supervisor.cpp).
std::string pole_name(std::size_t i) {
    std::string id = "p";
    id += std::to_string(i);
    return id;
}

fleet::link_message tiny_message(std::uint64_t index) {
    fleet::link_message msg;
    msg.frame_index = index;
    msg.cloud.push_back({20.0, 0.0, -1.5});
    return msg;
}

// --- pole_link transport ---

TEST(fleet_link, clean_link_delivers_in_order) {
    fleet::pole_link link{{}, 1};
    for (std::uint64_t i = 0; i < 10; ++i) link.send(tiny_message(i));
    const auto out = link.receive();
    ASSERT_EQ(out.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(out[i].frame_index, i);
        EXPECT_TRUE(fleet::verify_checksum(out[i]));
    }
    EXPECT_EQ(link.stats().sent, 10u);
    EXPECT_EQ(link.stats().delivered, 10u);
    EXPECT_EQ(link.stats().dropped, 0u);
}

TEST(fleet_link, identically_seeded_links_misbehave_identically) {
    fleet::link_fault_config faults;
    faults.drop_prob = 0.3;
    faults.delay_prob = 0.3;
    faults.reorder_prob = 0.3;
    faults.duplicate_prob = 0.2;
    faults.corrupt_prob = 0.2;

    fleet::pole_link a{faults, 77};
    fleet::pole_link b{faults, 77};
    std::vector<std::uint64_t> seq_a;
    std::vector<std::uint64_t> seq_b;
    for (std::uint64_t i = 0; i < 50; ++i) {
        a.send(tiny_message(i));
        b.send(tiny_message(i));
        for (const auto& m : a.receive()) seq_a.push_back(m.frame_index);
        for (const auto& m : b.receive()) seq_b.push_back(m.frame_index);
    }
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);
    EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
    EXPECT_GT(a.stats().dropped, 0u);
}

TEST(fleet_link, corruption_is_caught_by_checksum) {
    fleet::link_fault_config faults;
    faults.corrupt_prob = 1.0;
    fleet::pole_link link{faults, 5};
    for (std::uint64_t i = 0; i < 8; ++i) link.send(tiny_message(i));
    // An empty cloud corrupts via the checksum itself.
    fleet::link_message empty;
    empty.frame_index = 99;
    link.send(empty);

    const auto out = link.receive();
    ASSERT_EQ(out.size(), 9u);
    for (const auto& m : out) {
        EXPECT_FALSE(fleet::verify_checksum(m)) << "frame " << m.frame_index;
    }
    EXPECT_EQ(link.stats().corrupted, 9u);
}

TEST(fleet_link, delayed_messages_arrive_after_their_ticks) {
    fleet::link_fault_config faults;
    faults.delay_prob = 1.0;
    fleet::pole_link link{faults, 3};
    for (std::uint64_t i = 0; i < 6; ++i) link.send(tiny_message(i));

    EXPECT_TRUE(link.receive().empty());  // everything held at least 1 tick
    // ...and at most 3: all six arrive within 3 ticks after the send tick.
    std::size_t total = 0;
    for (int tick = 0; tick < 3 && total < 6; ++tick) total += link.receive().size();
    EXPECT_EQ(total, 6u);
    EXPECT_EQ(link.stats().delayed, 6u);
}

TEST(fleet_link, message_checksum_covers_every_field) {
    fleet::link_message msg = tiny_message(4);
    const std::uint64_t base = fleet::message_checksum(msg);
    fleet::link_message changed = msg;
    changed.frame_index = 5;
    EXPECT_NE(fleet::message_checksum(changed), base);
    changed = msg;
    changed.ground_truth = 3;
    EXPECT_NE(fleet::message_checksum(changed), base);
    changed = msg;
    changed.cloud[0].z += 1e-9;
    EXPECT_NE(fleet::message_checksum(changed), base);
}

// --- occupancy board (seqlock) ---

fleet::occupancy_snapshot sample_snapshot(std::uint64_t tick, std::size_t poles,
                                          std::uint64_t count) {
    fleet::occupancy_snapshot snap;
    snap.tick = tick;
    snap.poles.resize(poles);
    for (auto& p : snap.poles) {
        p.count = count;
        p.epoch = 1;
        p.updated_tick = tick;
        p.rung = fleet::pole_rung::live;
        snap.aggregate += count;
        ++snap.included;
    }
    return snap;
}

TEST(fleet_occupancy, publish_read_roundtrip) {
    fleet::occupancy_board board{4};
    const auto snap = sample_snapshot(7, 3, 5);
    board.publish(snap);
    const auto got = board.read();
    EXPECT_EQ(got.tick, 7u);
    EXPECT_EQ(got.version, 1u);
    EXPECT_EQ(got.aggregate, 15u);
    EXPECT_EQ(got.included, 3u);
    ASSERT_EQ(got.poles.size(), 3u);
    EXPECT_EQ(got.poles[1].count, 5u);
    EXPECT_EQ(got.poles[1].rung, fleet::pole_rung::live);
    EXPECT_EQ(board.version(), 1u);
}

TEST(fleet_occupancy, staleness_bound_is_checked_per_included_pole) {
    auto snap = sample_snapshot(20, 2, 3);
    snap.poles[1].updated_tick = 10;
    EXPECT_TRUE(snap.within_staleness(20, 10));
    EXPECT_FALSE(snap.within_staleness(21, 10));
    // An excluded pole may be arbitrarily old without violating the bound.
    snap.poles[1].rung = fleet::pole_rung::excluded;
    snap.poles[0].updated_tick = 40;
    EXPECT_TRUE(snap.within_staleness(40, 10));
    // A timestamp from the future is bogus, never "fresh".
    EXPECT_FALSE(snap.within_staleness(39, 10));
}

// TSan target: one writer hammering the board while readers take
// snapshots. Every slot of a published snapshot carries the same count,
// so any mixed (torn) snapshot is detectable by value.
TEST(fleet_occupancy, concurrent_readers_never_see_torn_snapshots) {
    fleet::occupancy_board board{8};
    board.publish(sample_snapshot(1, 8, 1));

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> torn{0};
    std::vector<std::thread> readers;
    readers.reserve(3);
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const auto snap = board.read();
                std::uint64_t sum = 0;
                for (const auto& p : snap.poles) {
                    if (p.count != snap.poles[0].count) torn.fetch_add(1);
                    sum += p.count;
                }
                if (sum != snap.aggregate) torn.fetch_add(1);
            }
        });
    }
    for (std::uint64_t tick = 2; tick < 2000; ++tick) {
        board.publish(sample_snapshot(tick, 8, tick));
    }
    stop.store(true);
    for (auto& r : readers) r.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(board.version(), 1999u);
}

// --- pole watchdog state machine ---

fleet::watchdog_config fast_watchdog() {
    fleet::watchdog_config wd;
    wd.max_consecutive_dropped = 3;
    wd.backoff_base_ticks = 4;
    wd.backoff_cap_ticks = 64;
    wd.backoff_jitter_fraction = 0.0;  // exact backoff arithmetic
    wd.probation_recovery_streak = 2;
    return wd;
}

TEST(fleet_watchdog, dead_frames_quarantine_then_backoff_then_recover) {
    const extent_classifier classifier;
    fleet::pole_runtime pole{"p0", 42,        det_config(), {},
                             fast_watchdog(), classifier,   nullptr};
    rng frames{9};

    std::uint64_t tick = 0;
    // Establish a good baseline frame.
    fleet::link_message good;
    good.frame_index = 0;
    good.cloud = synth_frame(frames, 2);
    pole.submit(good);
    pole.run_tick(++tick);
    ASSERT_EQ(pole.state(), fleet::pole_state::live);
    ASSERT_TRUE(pole.has_good_count());
    const std::uint64_t epoch_before = pole.supervisor().health().epoch;

    // Three empty (truncated -> dropped) frames trip the watchdog.
    for (std::uint64_t i = 1; i <= 3; ++i) {
        fleet::link_message dead;
        dead.frame_index = i;
        pole.submit(dead);
        pole.run_tick(++tick);
    }
    ASSERT_EQ(pole.state(), fleet::pole_state::quarantined);
    EXPECT_EQ(pole.stats().quarantines, 1u);
    EXPECT_EQ(pole.resume_tick(), tick + 4);  // base backoff, attempt 0

    // Arrivals while quarantined are rejected, not buffered.
    fleet::link_message during;
    during.frame_index = 90;
    during.cloud = synth_frame(frames, 1);
    pole.submit(during);
    pole.run_tick(++tick);
    EXPECT_EQ(pole.state(), fleet::pole_state::quarantined);
    EXPECT_GE(pole.stats().rejected_quarantined, 1u);

    // Idle out the backoff; the expiry tick restarts into probation.
    while (pole.state() == fleet::pole_state::quarantined) pole.run_tick(++tick);
    EXPECT_EQ(pole.state(), fleet::pole_state::probation);
    EXPECT_EQ(pole.stats().restarts, 1u);
    // The restart bumped the supervisor's health epoch (and wiped its
    // carry-forward state).
    EXPECT_GT(pole.supervisor().health().epoch, epoch_before);
    EXPECT_EQ(pole.supervisor().health().frames_total, 0u);

    // A recovery streak of good frames promotes back to live.
    for (std::uint64_t i = 100; i < 102; ++i) {
        fleet::link_message msg;
        msg.frame_index = i;
        msg.cloud = synth_frame(frames, 1);
        pole.submit(msg);
        pole.run_tick(++tick);
    }
    EXPECT_EQ(pole.state(), fleet::pole_state::live);
    EXPECT_EQ(pole.backoff_attempt(), 0u);  // recovery cleared the escalation
}

TEST(fleet_watchdog, backoff_escalates_exponentially_and_caps) {
    const extent_classifier classifier;
    auto wd = fast_watchdog();
    wd.probation_recovery_streak = 1;
    fleet::pole_runtime pole{"p0", 43, det_config(), {}, wd, classifier, nullptr};

    std::uint64_t tick = 0;
    std::uint64_t next_frame = 0;
    std::vector<std::uint64_t> backoffs;
    for (int round = 0; round < 6; ++round) {
        // Kill the pole: dropped frames until quarantine.
        while (pole.state() != fleet::pole_state::quarantined) {
            fleet::link_message dead;
            dead.frame_index = next_frame++;
            pole.submit(dead);
            pole.run_tick(++tick);
        }
        backoffs.push_back(pole.resume_tick() - tick);
        // Ride out the quarantine; probation begins at expiry. A drop in
        // probation re-quarantines immediately, which is how rounds > 0
        // escalate without a full dropped streak.
        while (pole.state() == fleet::pole_state::quarantined) pole.run_tick(++tick);
    }
    // attempt never reset (no good frames): 4, 8, 16, 32, 64, 64-capped.
    const std::vector<std::uint64_t> expected{4, 8, 16, 32, 64, 64};
    EXPECT_EQ(backoffs, expected);
}

TEST(fleet_watchdog, backoff_jitter_is_bounded_and_deterministic) {
    const extent_classifier classifier;
    auto wd = fast_watchdog();
    wd.backoff_jitter_fraction = 0.5;

    auto run_one = [&](std::uint64_t seed) {
        fleet::pole_runtime pole{"p0", seed,      det_config(), {}, wd,
                                 classifier, nullptr};
        std::uint64_t tick = 0;
        std::uint64_t frame = 0;
        while (pole.state() != fleet::pole_state::quarantined) {
            fleet::link_message dead;
            dead.frame_index = frame++;
            pole.submit(dead);
            pole.run_tick(++tick);
        }
        return pole.resume_tick() - tick;
    };

    const std::uint64_t d1 = run_one(1234);
    const std::uint64_t d2 = run_one(1234);
    EXPECT_EQ(d1, d2);  // same seed, same jitter
    EXPECT_GE(d1, 4u);  // base backoff...
    EXPECT_LE(d1, 6u);  // ...plus at most 50% jitter
}

TEST(fleet_watchdog, probation_flap_requarantines_with_escalated_backoff) {
    const extent_classifier classifier;
    fleet::pole_runtime pole{"p0", 44,        det_config(), {},
                             fast_watchdog(), classifier,   nullptr};
    rng frames{10};

    std::uint64_t tick = 0;
    std::uint64_t frame = 0;
    while (pole.state() != fleet::pole_state::quarantined) {
        fleet::link_message dead;
        dead.frame_index = frame++;
        pole.submit(dead);
        pole.run_tick(++tick);
    }
    while (pole.state() == fleet::pole_state::quarantined) pole.run_tick(++tick);
    ASSERT_EQ(pole.state(), fleet::pole_state::probation);

    // One good frame (progress, but streak needs 2)...
    fleet::link_message good;
    good.frame_index = frame++;
    good.cloud = synth_frame(frames, 1);
    pole.submit(good);
    pole.run_tick(++tick);
    ASSERT_EQ(pole.state(), fleet::pole_state::probation);

    // ...then a dead frame: a flap, back to quarantine with attempt 1.
    fleet::link_message dead;
    dead.frame_index = frame++;
    pole.submit(dead);
    pole.run_tick(++tick);
    EXPECT_EQ(pole.state(), fleet::pole_state::quarantined);
    EXPECT_EQ(pole.stats().quarantines, 2u);
    EXPECT_EQ(pole.resume_tick() - tick, 8u);  // base << 1: escalated
}

TEST(fleet_watchdog, hung_pole_is_quarantined_after_silent_ticks) {
    const extent_classifier classifier;
    auto wd = fast_watchdog();
    wd.max_silent_ticks = 3;
    fleet::pole_runtime pole{"p0", 45, det_config(), {}, wd, classifier, nullptr};

    std::uint64_t tick = 0;
    for (int i = 0; i < 4 && pole.state() == fleet::pole_state::live; ++i) {
        pole.run_tick(++tick);  // nothing ever arrives
    }
    EXPECT_EQ(pole.state(), fleet::pole_state::quarantined);
}

TEST(fleet_watchdog, checksum_failure_streak_quarantines) {
    const extent_classifier classifier;
    fleet::link_fault_config corrupting;
    corrupting.corrupt_prob = 1.0;
    fleet::pole_runtime pole{"p0", 46,        det_config(), corrupting,
                             fast_watchdog(), classifier,   nullptr};
    rng frames{11};

    // Four consecutive corrupt messages trip the watchdog; three do not.
    std::uint64_t tick = 0;
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(pole.state(), fleet::pole_state::live) << "after " << i << " corrupt";
        fleet::link_message msg;
        msg.frame_index = i;
        msg.cloud = synth_frame(frames, 1);
        pole.submit(msg);
        pole.run_tick(++tick);
    }
    EXPECT_EQ(pole.state(), fleet::pole_state::quarantined);
    EXPECT_EQ(pole.stats().checksum_failures, 4u);
    EXPECT_EQ(pole.stats().processed, 0u);  // nothing corrupted reached the pipeline
}

TEST(fleet_watchdog, link_duplicates_are_suppressed_once_processed) {
    const extent_classifier classifier;
    fleet::link_fault_config duplicating;
    duplicating.duplicate_prob = 1.0;
    fleet::pole_runtime pole{"p0", 47,        det_config(), duplicating,
                             fast_watchdog(), classifier,   nullptr};
    rng frames{12};

    std::uint64_t tick = 0;
    for (std::uint64_t i = 0; i < 5; ++i) {
        fleet::link_message msg;
        msg.frame_index = i;
        msg.cloud = synth_frame(frames, 1);
        pole.submit(msg);
        pole.run_tick(++tick);
    }
    EXPECT_EQ(pole.stats().processed, 5u);
    EXPECT_EQ(pole.stats().duplicates_dropped, 5u);
    EXPECT_EQ(pole.supervisor().health().frames_total, 5u);
}

// --- fleet manager: ladder, parity, inbox overflow ---

TEST(fleet, ladder_walks_live_stale_excluded_as_a_pole_goes_quiet) {
    const extent_classifier classifier;
    std::vector<fleet::pole_setup> setups(2);
    for (std::size_t i = 0; i < 2; ++i) {
        setups[i].pole_id = pole_name(i);
        setups[i].seed = 100 + i;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    fleet::fleet_config cfg;
    cfg.stale_after_ticks = 2;
    cfg.exclude_after_ticks = 5;
    fleet::fleet_manager fleet{cfg, setups};

    const auto c0 = synth_corpus(100, 20);
    const auto c1 = synth_corpus(101, 20);
    // Warm both poles up.
    for (std::size_t f = 0; f < 4; ++f) {
        fleet.submit(0, corpus_message(c0, f));
        fleet.submit(1, corpus_message(c1, f));
        fleet.tick();
    }
    EXPECT_EQ(fleet.rung(0), fleet::pole_rung::live);
    EXPECT_EQ(fleet.rung(1), fleet::pole_rung::live);
    const std::uint64_t count1 = fleet.pole(1).last_good_count();

    // Pole 1 goes quiet; pole 0 keeps streaming.
    std::vector<fleet::pole_rung> rung1_seq;
    for (std::size_t f = 4; f < 14; ++f) {
        fleet.submit(0, corpus_message(c0, f));
        fleet.tick();
        rung1_seq.push_back(fleet.rung(1));
        const auto snap = fleet.snapshot();
        // The aggregate always reconciles with the included poles, and
        // the staleness bound holds every tick.
        std::uint64_t sum = 0;
        for (const auto& p : snap.poles) {
            if (p.rung != fleet::pole_rung::excluded) sum += p.count;
        }
        EXPECT_EQ(snap.aggregate, sum);
        EXPECT_TRUE(snap.within_staleness(snap.tick, cfg.exclude_after_ticks));
        if (fleet.rung(1) == fleet::pole_rung::stale_count) {
            EXPECT_EQ(snap.poles[1].count, count1);  // serving the last good count
        }
    }
    // The quiet pole walked live -> stale_count -> excluded, in order.
    EXPECT_EQ(rung1_seq.front(), fleet::pole_rung::live);
    EXPECT_TRUE(std::find(rung1_seq.begin(), rung1_seq.end(),
                          fleet::pole_rung::stale_count) != rung1_seq.end());
    EXPECT_EQ(rung1_seq.back(), fleet::pole_rung::excluded);
    EXPECT_EQ(fleet.rung(0), fleet::pole_rung::live);
}

TEST(fleet, healthy_poles_bit_identical_to_solo_replay) {
    const extent_classifier classifier;
    const std::size_t frames = 30;

    std::vector<replay::frame_corpus> corpora;
    for (std::size_t i = 0; i < 3; ++i) corpora.push_back(synth_corpus(500 + i, frames));

    // Pole 1 suffers a nasty link and a flaky classifier. Poles 0 and 2
    // are healthy.
    const flaky_classifier flaky{classifier, 0.3};
    std::vector<fleet::pole_setup> setups(3);
    for (std::size_t i = 0; i < 3; ++i) {
        setups[i].pole_id = pole_name(i);
        setups[i].seed = corpora[i].base_seed;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    setups[1].primary = &flaky;
    setups[1].fallback = &classifier;
    setups[1].link.drop_prob = 0.3;
    setups[1].link.delay_prob = 0.3;
    setups[1].link.corrupt_prob = 0.2;

    fleet::fleet_manager fleet{{}, setups};
    fleet.pole(0).set_record_history(true);
    fleet.pole(2).set_record_history(true);
    // Tick t submits frame t of every pole, then 8 empty ticks drain
    // delayed messages and backlogs.
    for (std::size_t f = 0; f < frames; ++f) {
        for (std::size_t i = 0; i < 3; ++i) fleet.submit(i, corpus_message(corpora[i], f));
        fleet.tick();
    }
    for (int i = 0; i < 8; ++i) fleet.tick();
    EXPECT_EQ(fleet.current_tick(), frames + 8);

    for (const std::size_t pole : {std::size_t{0}, std::size_t{2}}) {
        frame_supervisor solo{det_config(), classifier};
        const replay::replay_result baseline =
            replay::replay_corpus(solo, corpora[pole]);
        const auto& history = fleet.pole(pole).history();
        ASSERT_EQ(history.size(), frames) << "pole " << pole;
        for (std::size_t f = 0; f < frames; ++f) {
            EXPECT_EQ(history[f].frame_index, f);
            EXPECT_EQ(history[f].count, baseline.reports[f].count)
                << "pole " << pole << " frame " << f;
            EXPECT_EQ(history[f].status, baseline.reports[f].status)
                << "pole " << pole << " frame " << f;
        }
        EXPECT_EQ(fleet.pole(pole).stats().processed, frames);
    }
}

TEST(fleet, tick_results_identical_across_thread_counts) {
    const extent_classifier classifier;
    const std::size_t frames = 12;

    auto run_fleet = [&](std::size_t threads) {
        set_global_thread_count(threads);
        std::vector<fleet::pole_setup> setups(4);
        for (std::size_t i = 0; i < 4; ++i) {
            setups[i].pole_id = pole_name(i);
            setups[i].seed = 700 + i;
            setups[i].supervisor = det_config();
            setups[i].primary = &classifier;
        }
        setups[2].link.drop_prob = 0.4;
        fleet::fleet_manager fleet{{}, setups};
        std::vector<replay::frame_corpus> corpora;
        for (std::size_t i = 0; i < 4; ++i) corpora.push_back(synth_corpus(700 + i, frames));
        std::vector<std::uint64_t> aggregates;
        for (std::size_t f = 0; f < frames; ++f) {
            for (std::size_t i = 0; i < 4; ++i) fleet.submit(i, corpus_message(corpora[i], f));
            fleet.tick();
            aggregates.push_back(fleet.snapshot().aggregate);
        }
        return aggregates;
    };

    const auto solo_lane = run_fleet(1);
    const auto four_lanes = run_fleet(4);
    EXPECT_EQ(solo_lane, four_lanes);
    set_global_thread_count(4);
}

TEST(fleet, inbox_overflow_sheds_oldest) {
    const extent_classifier classifier;
    std::vector<fleet::pole_setup> setups(1);
    setups[0].pole_id = "p0";
    setups[0].seed = 800;
    setups[0].supervisor = det_config();
    setups[0].primary = &classifier;

    fleet::fleet_manager fleet{{}, setups};

    const auto corpus = synth_corpus(800, 36);
    // Submit 12 frames per tick into an 8-frame inbox that drains 4 per
    // tick: overflow must shed the oldest, not block or corrupt.
    for (std::size_t f = 0; f + 12 <= 36; f += 12) {
        for (std::size_t k = 0; k < 12; ++k) fleet.submit(0, corpus_message(corpus, f + k));
        fleet.tick();
    }
    const std::uint64_t shed = fleet.pole(0).stats().shed_inbox_overflow;
    EXPECT_GT(shed, 0u);
    EXPECT_GT(fleet.pole(0).stats().processed, 0u);
    EXPECT_EQ(fleet.metrics().find_counter("hawc_fleet_frames_shed_total")->value(), shed);
}

TEST(fleet, per_pole_metrics_are_labeled_and_scrapeable) {
    const extent_classifier classifier;
    std::vector<fleet::pole_setup> setups(2);
    for (std::size_t i = 0; i < 2; ++i) {
        setups[i].pole_id = pole_name(i);
        setups[i].seed = 900 + i;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    fleet::fleet_manager fleet{{}, setups};
    const auto corpus0 = synth_corpus(900, 3);
    for (std::size_t f = 0; f < 3; ++f) {
        fleet.submit(0, corpus_message(corpus0, f));
        fleet.tick();
    }

    const std::string prom = telemetry::to_prometheus(fleet.metrics());
    EXPECT_NE(prom.find("hawc_pole_frames_total{pole=\"p0\"} 3"), std::string::npos);
    EXPECT_NE(prom.find("hawc_pole_frames_total{pole=\"p1\"} 0"), std::string::npos);
    // One TYPE line per family, not per series.
    std::size_t type_lines = 0;
    std::size_t pos = 0;
    while ((pos = prom.find("# TYPE hawc_pole_frames_total ", pos)) != std::string::npos) {
        ++type_lines;
        ++pos;
    }
    EXPECT_EQ(type_lines, 1u);
}

// --- chaos soak: the acceptance gate ---
//
// Eight poles, 10k+ frames, with link, sensor, and classifier faults all
// firing at once on a subset of poles. Healthy poles must stay
// bit-identical to their solo baselines, the staleness bound must hold
// on every published snapshot, and quarantined poles must recover via
// backoff without the fleet restarting.

TEST(fleet_chaos, multi_pole_soak_isolates_fault_domains) {
    const extent_classifier classifier;
    const std::size_t poles = 8;
    const std::size_t frames = 1300;  // 8 x 1300 = 10400 submitted frames

    std::vector<replay::frame_corpus> corpora;
    corpora.reserve(poles);
    for (std::size_t i = 0; i < poles; ++i) corpora.push_back(synth_corpus(3000 + i, frames));

    // Flaky classifiers on poles 5 and 7.
    const flaky_classifier flaky5{classifier, 0.1};
    const flaky_classifier flaky7{classifier, 0.2};

    std::vector<fleet::pole_setup> setups(poles);
    for (std::size_t i = 0; i < poles; ++i) {
        setups[i].pole_id = pole_name(i);
        setups[i].seed = 3000 + i;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    // Poles 0, 1: healthy baselines. Pole 2: lossy link. Pole 3:
    // corrupting link. Pole 4: sensor dies for a stretch (empty frames).
    // Pole 5: flaky classifier with fp32-style fallback. Pole 6:
    // reordering, duplicating link. Pole 7: everything at once.
    setups[2].link.drop_prob = 0.15;
    setups[2].link.delay_prob = 0.2;
    setups[3].link.corrupt_prob = 0.2;
    setups[5].primary = &flaky5;
    setups[5].fallback = &classifier;
    setups[6].link.reorder_prob = 0.3;
    setups[6].link.duplicate_prob = 0.3;
    setups[7].primary = &flaky7;
    setups[7].fallback = &classifier;
    setups[7].link.drop_prob = 0.1;
    setups[7].link.delay_prob = 0.1;
    setups[7].link.corrupt_prob = 0.1;
    setups[7].link.reorder_prob = 0.1;
    setups[7].link.duplicate_prob = 0.1;

    fleet::fleet_config cfg;
    fleet::fleet_manager fleet{cfg, setups};
    fleet.pole(0).set_record_history(true);
    fleet.pole(1).set_record_history(true);

    rng sensor_chaos{31337};
    std::uint64_t staleness_violations = 0;
    std::uint64_t aggregate_mismatches = 0;
    for (std::size_t f = 0; f < frames; ++f) {
        for (std::size_t i = 0; i < poles; ++i) {
            fleet::link_message msg = corpus_message(corpora[i], f);
            // Pole 4's sensor: dead between frames 400 and 520, and
            // randomly truncated 10% of the time otherwise.
            if (i == 4) {
                if (f >= 400 && f < 520) {
                    msg.cloud.clear();
                } else if (sensor_chaos.chance(0.1)) {
                    point_cloud stub;
                    for (std::size_t k = 0; k < 8; ++k) stub.push_back(msg.cloud[k]);
                    msg.cloud = stub;
                }
            }
            fleet.submit(i, std::move(msg));
        }
        fleet.tick();

        const auto snap = fleet.snapshot();
        if (!snap.within_staleness(snap.tick, cfg.exclude_after_ticks)) {
            ++staleness_violations;
        }
        std::uint64_t sum = 0;
        std::uint32_t included = 0;
        for (const auto& p : snap.poles) {
            if (p.rung != fleet::pole_rung::excluded) {
                sum += p.count;
                ++included;
            }
        }
        if (sum != snap.aggregate || included != snap.included) ++aggregate_mismatches;
    }
    for (int i = 0; i < 8; ++i) fleet.tick();  // drain

    EXPECT_EQ(staleness_violations, 0u);
    EXPECT_EQ(aggregate_mismatches, 0u);

    // Healthy poles: bit-identical to their solo replay baselines.
    for (const std::size_t pole : {std::size_t{0}, std::size_t{1}}) {
        frame_supervisor solo{det_config(), classifier};
        const replay::replay_result baseline = replay::replay_corpus(solo, corpora[pole]);
        const auto& history = fleet.pole(pole).history();
        ASSERT_EQ(history.size(), frames) << "pole " << pole;
        std::uint64_t mismatches = 0;
        for (std::size_t f = 0; f < frames; ++f) {
            if (history[f].count != baseline.reports[f].count ||
                history[f].status != baseline.reports[f].status) {
                ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "pole " << pole;
        EXPECT_EQ(fleet.pole(pole).stats().restarts, 0u);
    }

    // The dead-sensor pole was quarantined and recovered via backoff —
    // without the fleet restarting (healthy poles processed everything).
    EXPECT_GE(fleet.pole(4).stats().quarantines, 1u);
    EXPECT_GE(fleet.pole(4).stats().restarts, 1u);
    EXPECT_NE(fleet.pole(4).state(), fleet::pole_state::quarantined);
    EXPECT_GT(fleet.pole(4).supervisor().health().epoch, 0u);

    // The corrupting link never got a corrupted payload into a pipeline:
    // every rejection was by checksum, and corrupted == rejected.
    EXPECT_GT(fleet.pole(3).stats().checksum_failures, 0u);
    EXPECT_EQ(fleet.pole(3).stats().checksum_failures, fleet.pole(3).link().corrupted);

    // Every supervisor's books balance, fleet-wide.
    for (std::size_t i = 0; i < poles; ++i) {
        EXPECT_TRUE(fleet.pole(i).supervisor().health().accounted()) << "pole " << i;
    }

    // The board published once per tick.
    EXPECT_EQ(fleet.board().version(), fleet.current_tick());
}

}  // namespace
}  // namespace hawc
