#include "replay/replay_driver.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "lidar/scanner.hpp"

namespace hawc::replay {

std::uint64_t frame_seed(std::uint64_t base_seed, std::size_t index) {
    // splitmix64 of (base ^ index-dependent odd constant): well-spread,
    // cheap, and independent of how many frames precede this one — frame
    // k replays identically whether the corpus is walked fully or sliced.
    std::uint64_t state = base_seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
    return splitmix64(state);
}

frame_corpus record_corpus(const record_config& config) {
    frame_corpus corpus;
    corpus.name = config.name;
    corpus.base_seed = config.seed;
    corpus.frames.reserve(config.frames);

    const scanner sensor{config.capture.sensor};
    fault_injector injector{config.faults};

    for (std::size_t i = 0; i < config.frames; ++i) {
        rng random{frame_seed(config.seed, i)};
        const std::size_t people =
            config.min_people +
            random.uniform_index(config.max_people - config.min_people + 1);
        const std::size_t objects = random.uniform_index(config.max_objects + 1);
        const scene s = make_crowd_scene(random, people, objects, config.capture.walkway);
        const scan_result scan_data =
            sensor.scan(s.primitives(), random, config.capture.scan);

        frame_record frame;
        frame.ground_truth = static_cast<std::uint32_t>(
            visible_human_count(s, scan_data, config.capture));
        point_cloud cloud = scan_data.to_cloud();
        if (config.inject_faults) cloud = injector.corrupt(cloud, random);
        frame.cloud = round_to_recorded(cloud);
        corpus.frames.push_back(std::move(frame));
    }
    return corpus;
}

namespace {

// The one per-frame replay loop: frame i runs on the rng stream
// frame_seed(base_seed, indices ? indices[i] : i).
replay_result replay_frames(frame_supervisor& supervisor, const frame_corpus& corpus,
                            const std::uint64_t* indices = nullptr) {
    replay_result result;
    result.reports.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const frame_record& frame = corpus.frames[i];
        const std::size_t stream = indices != nullptr ? static_cast<std::size_t>(indices[i]) : i;
        rng random{frame_seed(corpus.base_seed, stream)};
        frame_report report = supervisor.process(frame.cloud, random);
        switch (report.status) {
            case frame_status::ok: ++result.frames_ok; break;
            case frame_status::degraded: ++result.frames_degraded; break;
            case frame_status::dropped: ++result.frames_dropped; break;
        }
        result.total_count += report.count;
        const auto truth = static_cast<std::size_t>(frame.ground_truth);
        result.absolute_count_error +=
            report.count > truth ? report.count - truth : truth - report.count;
        result.reports.push_back(std::move(report));
    }
    return result;
}

}  // namespace

replay_result replay_corpus(frame_supervisor& supervisor, const frame_corpus& corpus) {
    return replay_frames(supervisor, corpus);
}

replay_result replay_corpus_indexed(frame_supervisor& supervisor, const frame_corpus& corpus,
                                    std::span<const std::uint64_t> indices) {
    HAWC_REQUIRE(indices.size() == corpus.size(),
                 "indexed replay needs one stream index per frame");
    return replay_frames(supervisor, corpus, indices.data());
}

}  // namespace hawc::replay
