#include "obs/postmortem.hpp"

#include <fstream>

#include "common/error.hpp"
#include "replay/binary_io.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::obs {

const char* to_string(dump_trigger trigger) {
    switch (trigger) {
        case dump_trigger::manual: return "manual";
        case dump_trigger::quarantine: return "quarantine";
    }
    return "unknown";
}

namespace {

void write_carry(replay::byte_writer& w, const supervisor_carry& carry) {
    w.u8(carry.has_last_good ? 1 : 0);
    w.u64(carry.last_good_count);
    w.u64(carry.stale_streak);
}

supervisor_carry read_carry(replay::byte_reader& r) {
    supervisor_carry carry;
    carry.has_last_good = r.u8() != 0;
    carry.last_good_count = r.u64();
    carry.stale_streak = r.u64();
    return carry;
}

}  // namespace

void save_postmortem(std::ostream& out, const postmortem_bundle& bundle) {
    replay::byte_writer payload;
    payload.str(bundle.pole_id);
    payload.u64(bundle.base_seed);
    payload.u8(static_cast<std::uint8_t>(bundle.trigger));
    payload.u64(bundle.tick);

    payload.u32(static_cast<std::uint32_t>(bundle.frames.size()));
    for (const recorded_frame& frame : bundle.frames) {
        payload.u64(frame.frame_index);
        write_carry(payload, frame.carry);
        payload.u64(frame.count);
        payload.u8(static_cast<std::uint8_t>(frame.status));
        replay::write_frame_record(payload, frame.record);
    }

    payload.str(bundle.events_jsonl);
    payload.str(bundle.trace_json);
    // Bundles carry dozens of float32 clouds plus JSONL/trace text — both
    // compress well, and quarantine storms can dump many of them.
    replay::write_envelope_compressed(out, postmortem_magic, postmortem_version, payload);
}

postmortem_bundle load_postmortem(std::istream& in) {
    const replay::envelope env =
        replay::read_envelope(in, postmortem_magic, postmortem_version, "postmortem bundle");
    // Versions 1 and 2 laid frames out differently; no reader for them
    // is kept.
    if (env.version != postmortem_version) {
        throw io_error{"postmortem bundle: unsupported format version " +
                       std::to_string(env.version)};
    }
    replay::byte_reader r{env.payload};

    postmortem_bundle bundle;
    bundle.pole_id = r.str();
    bundle.base_seed = r.u64();
    const std::uint8_t trigger = r.u8();
    if (trigger > static_cast<std::uint8_t>(dump_trigger::quarantine)) {
        throw io_error{"postmortem bundle: unknown dump trigger"};
    }
    bundle.trigger = static_cast<dump_trigger>(trigger);
    bundle.tick = r.u64();

    const std::uint32_t frame_count = r.u32();
    // Each frame needs at least its fixed header; anything larger cannot
    // fit in the checksummed payload we just validated.
    if (frame_count > env.payload.size()) {
        throw io_error{"postmortem bundle: implausible frame count"};
    }
    bundle.frames.reserve(frame_count);
    for (std::uint32_t i = 0; i < frame_count; ++i) {
        recorded_frame frame;
        frame.frame_index = r.u64();
        frame.carry = read_carry(r);
        frame.count = r.u64();
        const std::uint8_t status = r.u8();
        if (status > static_cast<std::uint8_t>(frame_status::dropped)) {
            throw io_error{"postmortem bundle: unknown frame status"};
        }
        frame.status = static_cast<frame_status>(status);
        frame.record = replay::read_frame_record(r);
        bundle.frames.push_back(std::move(frame));
    }

    bundle.events_jsonl = r.str();
    bundle.trace_json = r.str();
    r.expect_exhausted("postmortem bundle");
    return bundle;
}

void save_postmortem_file(const std::filesystem::path& path, const postmortem_bundle& bundle) {
    std::ofstream out{path, std::ios::binary};
    if (!out) throw io_error{"cannot open " + path.string() + " for writing"};
    save_postmortem(out, bundle);
    if (!out) throw io_error{"failed writing " + path.string()};
}

postmortem_bundle load_postmortem_file(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw io_error{"cannot open " + path.string()};
    return load_postmortem(in);
}

postmortem_replay_result replay_postmortem(const postmortem_bundle& bundle,
                                           frame_supervisor& supervisor) {
    postmortem_replay_result result;
    result.frames = bundle.frames.size();
    if (bundle.frames.empty()) {
        result.bit_exact = true;
        return result;
    }

    // Arm the ladder exactly as it was before the oldest retained frame,
    // then drive the recorded frames through the standard replay driver
    // with their original stream indices.
    supervisor.restore_carry(bundle.frames.front().carry);

    replay::frame_corpus corpus;
    corpus.name = bundle.pole_id;
    corpus.base_seed = bundle.base_seed;
    corpus.frames.reserve(bundle.frames.size());
    std::vector<std::uint64_t> indices;
    indices.reserve(bundle.frames.size());
    for (const recorded_frame& frame : bundle.frames) {
        corpus.frames.push_back(frame.record);
        indices.push_back(frame.frame_index);
    }

    const replay::replay_result replayed =
        replay::replay_corpus_indexed(supervisor, corpus, indices);
    for (std::size_t i = 0; i < bundle.frames.size(); ++i) {
        const frame_report& report = replayed.reports[i];
        if (report.count == bundle.frames[i].count &&
            report.status == bundle.frames[i].status) {
            ++result.matches;
        } else {
            result.divergent.push_back(i);
        }
    }
    result.bit_exact = result.matches == result.frames;
    return result;
}

}  // namespace hawc::obs
