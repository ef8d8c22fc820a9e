// Tests for the chunked compressed corpus container (replay/container)
// and its byte codec (replay/codec): codec identity on empty / tiny /
// incompressible / highly-redundant / adversarial inputs, bounds-checked
// decoding of corrupted and truncated token streams (clean io_error,
// never UB), bit-exact container round trips for corpora and pole corpus
// sets, random access through the chunk index, the LRU streaming bound
// (a sequential walk decodes each chunk exactly once), an exhaustive
// single-byte corruption + truncation sweep over a whole container file,
// and replay parity: a packed corpus replays bit-identically to its
// in-memory original, solo and through a fleet.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fleet/fleet_manager.hpp"
#include "replay/codec.hpp"
#include "replay/container.hpp"
#include "replay/corpus_set.hpp"
#include "replay/replay_driver.hpp"

namespace hawc::replay {
namespace {

// ---- helpers -------------------------------------------------------------

std::vector<char> to_bytes(const std::string& s) {
    return std::vector<char>(s.begin(), s.end());
}

/// Compress + decompress, asserting the identity.
void expect_codec_identity(const std::vector<char>& input) {
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    ASSERT_LE(packed.size(), lz_max_compressed_size(input.size()));
    const std::vector<char> unpacked =
        lz_decompress(packed.data(), packed.size(), input.size());
    EXPECT_EQ(unpacked, input);
}

// Synthetic pole capture in round_to_recorded (float32) precision, so
// container round trips are exact identities.
point_cloud synth_frame(rng& r, std::size_t people) {
    point_cloud cloud;
    for (int i = 0; i < 180; ++i) {
        cloud.push_back({r.uniform(10.0, 36.0), r.uniform(-3.0, 3.0),
                         -3.0 + std::abs(r.normal(0.0, 0.05))});
    }
    for (std::size_t p = 0; p < people; ++p) {
        const double fx = r.uniform(14.0, 33.0);
        const double fy = r.uniform(-2.0, 2.0);
        const double height = r.uniform(1.5, 1.9);
        for (int i = 0; i < 90; ++i) {
            cloud.push_back({fx + r.normal(0.0, 0.12), fy + r.normal(0.0, 0.12),
                             -2.9 + r.uniform() * height});
        }
    }
    return round_to_recorded(cloud);
}

frame_corpus synth_corpus(std::uint64_t base_seed, std::size_t frames) {
    frame_corpus corpus;
    corpus.name = "synth";
    corpus.base_seed = base_seed;
    rng r{base_seed ^ 0xc0ffeeull};
    for (std::size_t i = 0; i < frames; ++i) {
        frame_record rec;
        const auto people = static_cast<std::size_t>(r.uniform_index(4));
        rec.ground_truth = static_cast<std::uint32_t>(people);
        rec.cloud = synth_frame(r, people);
        corpus.frames.push_back(std::move(rec));
    }
    return corpus;
}

pole_corpus_set synth_set(std::size_t poles, std::size_t frames) {
    pole_corpus_set set;
    set.name = "synth-set";
    for (std::size_t i = 0; i < poles; ++i) {
        pole_corpus pc;
        // Two appends: GCC 12's -Wrestrict false-positives on
        // operator+(const char*, std::string&&) at -O3.
        pc.pole_id = "p";
        pc.pole_id += std::to_string(i);
        pc.corpus = synth_corpus(900 + i, frames);
        set.poles.push_back(std::move(pc));
    }
    return set;
}

class extent_classifier final : public human_classifier {
public:
    bool is_human(const point_cloud& cluster, rng&) const override {
        if (cluster.empty()) return false;
        const vec3 extent = cluster.bounds().size();
        return extent.z > 0.7 && std::max(extent.x, extent.y) < 2.5;
    }
    std::string name() const override { return "ExtentGate"; }
};

supervisor_config det_config() { return without_deadlines({}); }

// ---- codec: identity -----------------------------------------------------

TEST(codec, empty_input_round_trips) { expect_codec_identity({}); }

TEST(codec, inputs_below_min_match_round_trip) {
    for (const char* s : {"a", "ab", "abc", "abcd", "abcde"}) {
        expect_codec_identity(to_bytes(s));
    }
}

TEST(codec, redundant_input_compresses_and_round_trips) {
    std::string text;
    for (int i = 0; i < 400; ++i) text += "the pole counted a crowd; ";
    const std::vector<char> input = to_bytes(text);
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    EXPECT_LT(packed.size(), input.size() / 4) << "repetitive text should shrink >4x";
    EXPECT_EQ(lz_decompress(packed.data(), packed.size(), input.size()), input);
}

TEST(codec, rle_style_runs_round_trip) {
    // Long single-byte and two-byte runs exercise the overlapping-match
    // (offset < match length) decode path.
    for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{100000}}) {
        expect_codec_identity(std::vector<char>(n, 'x'));
        std::vector<char> alt;
        for (std::size_t i = 0; i < n; ++i) alt.push_back(i % 2 ? 'a' : 'b');
        expect_codec_identity(alt);
    }
}

TEST(codec, incompressible_input_round_trips_within_bound) {
    rng r{123};
    std::vector<char> noise;
    for (int i = 0; i < 300000; ++i) {
        noise.push_back(static_cast<char>(r.uniform_index(256)));
    }
    const std::vector<char> packed = lz_compress(noise.data(), noise.size());
    ASSERT_LE(packed.size(), lz_max_compressed_size(noise.size()));
    EXPECT_EQ(lz_decompress(packed.data(), packed.size(), noise.size()), noise);
}

TEST(codec, property_random_structured_inputs_round_trip) {
    // Fuzz-ish sweep: random mixtures of literal noise, repeated blocks
    // and long-range copies — the shapes the match finder must handle.
    rng r{20260809};
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<char> input;
        const std::size_t pieces = 1 + r.uniform_index(12);
        for (std::size_t p = 0; p < pieces; ++p) {
            switch (r.uniform_index(3)) {
                case 0: {  // noise
                    const std::size_t n = r.uniform_index(2000);
                    for (std::size_t i = 0; i < n; ++i) {
                        input.push_back(static_cast<char>(r.uniform_index(256)));
                    }
                    break;
                }
                case 1: {  // byte run
                    const std::size_t n = r.uniform_index(5000);
                    input.insert(input.end(), n, static_cast<char>(r.uniform_index(256)));
                    break;
                }
                default: {  // copy of an earlier window (long-range match)
                    if (input.empty()) break;
                    const std::size_t start = r.uniform_index(input.size());
                    const std::size_t len =
                        std::min(input.size() - start, 1 + r.uniform_index(4000));
                    std::vector<char> copy(input.begin() + static_cast<std::ptrdiff_t>(start),
                                           input.begin() +
                                               static_cast<std::ptrdiff_t>(start + len));
                    input.insert(input.end(), copy.begin(), copy.end());
                    break;
                }
            }
        }
        expect_codec_identity(input);
    }
}

// ---- codec: bounds-checked decode ----------------------------------------

TEST(codec, decompress_rejects_wrong_output_size) {
    const std::vector<char> input = to_bytes("abcdefgh abcdefgh abcdefgh abcdefgh!");
    const std::vector<char> packed = lz_compress(input.data(), input.size());
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), input.size() - 1), io_error);
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), input.size() + 1), io_error);
    EXPECT_THROW(lz_decompress(packed.data(), packed.size(), 0), io_error);
}

TEST(codec, decompress_survives_arbitrary_corruption) {
    // Every single-byte flip and every truncation of a real token stream
    // must either throw io_error or produce exactly dst_size bytes —
    // never scribble out of bounds (the ASan/UBSan phase would flag it).
    std::string text;
    for (int i = 0; i < 40; ++i) text += "pole " + std::to_string(i % 7) + " count; ";
    const std::vector<char> input = to_bytes(text);
    std::vector<char> packed = lz_compress(input.data(), input.size());

    std::vector<char> out(input.size());
    for (std::size_t i = 0; i < packed.size(); ++i) {
        for (const char flip : {char(0xff), char(0x01), char(0x80)}) {
            std::vector<char> bad = packed;
            bad[i] = static_cast<char>(bad[i] ^ flip);
            try {
                lz_decompress_into(bad.data(), bad.size(), out.data(), out.size());
            } catch (const io_error&) {
                // clean rejection is the expected common case
            }
        }
    }
    for (std::size_t keep = 0; keep < packed.size(); ++keep) {
        try {
            lz_decompress_into(packed.data(), keep, out.data(), out.size());
            // One benign truncation exists: when the input ends on a
            // match, the stream carries a redundant empty terminal token,
            // and dropping it still decodes completely. A "successful"
            // truncated decode must therefore be byte-identical to the
            // original — anything else is a decoder bug.
            EXPECT_EQ(out, input) << "truncated stream of " << keep
                                  << " bytes decoded to different data";
        } catch (const io_error&) {
            // clean rejection: the expected outcome at almost every length
        }
    }
}

TEST(codec, decompress_rejects_adversarial_streams) {
    std::vector<char> out(64);
    // Token demanding literals the input does not carry.
    const std::vector<char> hungry = {char(0xf0), char(0xff)};
    EXPECT_THROW(lz_decompress_into(hungry.data(), hungry.size(), out.data(), out.size()),
                 io_error);
    // Match referencing before the start of the output (offset too big).
    const std::vector<char> back = {char(0x14), 'a', char(0x50), char(0x00), char(0x00)};
    EXPECT_THROW(lz_decompress_into(back.data(), back.size(), out.data(), out.size()),
                 io_error);
    // Zero offset (self-copy) is always invalid.
    const std::vector<char> zero = {char(0x14), 'a', char(0x00), char(0x00), char(0x00)};
    EXPECT_THROW(lz_decompress_into(zero.data(), zero.size(), out.data(), out.size()),
                 io_error);
    // Random garbage, many seeds: any outcome but UB.
    rng r{77};
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<char> junk;
        const std::size_t n = 1 + r.uniform_index(64);
        for (std::size_t i = 0; i < n; ++i) {
            junk.push_back(static_cast<char>(r.uniform_index(256)));
        }
        try {
            lz_decompress_into(junk.data(), junk.size(), out.data(), out.size());
        } catch (const io_error&) {
        }
    }
}

// ---- container: round trips ----------------------------------------------

TEST(container, corpus_round_trips_bit_exactly_across_chunk_sizes) {
    const frame_corpus corpus = synth_corpus(41, 9);
    for (const std::size_t frames_per_chunk : {std::size_t{1}, std::size_t{2},
                                               std::size_t{4}, std::size_t{64}}) {
        std::ostringstream out;
        pack_corpus(out, corpus, {.frames_per_chunk = frames_per_chunk});
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_EQ(reader.kind(), container_kind::corpus);
        EXPECT_EQ(reader.title(), corpus.name);
        ASSERT_EQ(reader.stream_count(), 1u);
        EXPECT_EQ(reader.frame_count(0), corpus.size());
        const std::size_t expect_chunks =
            (corpus.size() + frames_per_chunk - 1) / frames_per_chunk;
        EXPECT_EQ(reader.chunks().size(), expect_chunks) << frames_per_chunk;
        EXPECT_EQ(unpack_corpus(reader), corpus) << frames_per_chunk;
    }
}

TEST(container, corpus_set_round_trips_bit_exactly) {
    const pole_corpus_set set = synth_set(3, 7);
    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    EXPECT_EQ(reader.kind(), container_kind::corpus_set);
    ASSERT_EQ(reader.stream_count(), set.pole_count());
    for (std::uint32_t s = 0; s < set.pole_count(); ++s) {
        EXPECT_EQ(reader.stream(s).pole_id, set.poles[s].pole_id);
        EXPECT_EQ(reader.stream(s).base_seed, set.poles[s].corpus.base_seed);
    }
    EXPECT_EQ(unpack_corpus_set(reader), set);
}

TEST(container, empty_corpus_round_trips) {
    frame_corpus corpus;
    corpus.name = "empty";
    corpus.base_seed = 5;
    std::ostringstream out;
    pack_corpus(out, corpus);
    std::istringstream in{out.str()};
    container_reader reader{in};
    EXPECT_EQ(reader.frame_count(0), 0u);
    EXPECT_EQ(reader.chunks().size(), 0u);
    EXPECT_EQ(unpack_corpus(reader), corpus);
}

TEST(container, random_access_serves_any_frame) {
    const frame_corpus corpus = synth_corpus(43, 10);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    // Deliberately cache-hostile order: alternate ends, then re-read.
    const std::size_t order[] = {9, 0, 5, 2, 8, 1, 9, 0, 4, 6, 3, 7};
    for (const std::size_t i : order) {
        EXPECT_EQ(reader.frame(0, i), corpus.frames[i]) << i;
    }
    EXPECT_THROW(reader.frame(0, corpus.size()), io_error);
    EXPECT_THROW(reader.frame(1, 0), invalid_argument_error);
}

TEST(container, sequential_walk_decodes_each_chunk_once) {
    const frame_corpus corpus = synth_corpus(47, 12);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    ASSERT_EQ(reader.chunks().size(), 4u);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        EXPECT_EQ(reader.frame(0, i), corpus.frames[i]);
        EXPECT_EQ(reader.cached_chunk_count(), 1u) << "streaming bound violated at " << i;
    }
    EXPECT_EQ(reader.chunks_decoded(), 4u) << "sequential walk should decode each chunk once";
}

TEST(container, lru_cache_capacity_bounds_residency) {
    const pole_corpus_set set = synth_set(3, 6);
    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 2});
    std::istringstream in{out.str()};
    container_reader reader{in, {.cached_chunks = 3}};
    // Round-robin across 3 streams: with capacity == stream count each
    // stream's hot chunk stays resident, so every chunk decodes once.
    for (std::size_t f = 0; f < 6; ++f) {
        for (std::uint32_t s = 0; s < 3; ++s) {
            EXPECT_EQ(reader.frame(s, f), set.poles[s].corpus.frames[f]);
        }
        EXPECT_LE(reader.cached_chunk_count(), 3u);
    }
    EXPECT_EQ(reader.chunks_decoded(), reader.chunks().size());
}

TEST(container, incompressible_chunks_are_stored_raw) {
    const frame_corpus corpus = synth_corpus(53, 4);  // float noise: incompressible
    std::ostringstream out;
    pack_corpus(out, corpus);
    std::istringstream in{out.str()};
    container_reader reader{in};
    for (const chunk_entry& chunk : reader.chunks()) {
        EXPECT_EQ(chunk.codec, chunk_codec::raw);
        EXPECT_EQ(chunk.stored_size, chunk.uncompressed_size);
    }
    EXPECT_EQ(unpack_corpus(reader), corpus);
}

TEST(container, writer_enforces_protocol) {
    std::ostringstream out;
    container_writer writer{out, container_kind::corpus, "t"};
    EXPECT_THROW(writer.append(0, frame_record{}), invalid_argument_error);  // no stream
    const std::uint32_t s = writer.add_stream("", "t", 1);
    writer.append(s, frame_record{});
    writer.finalize();
    EXPECT_TRUE(writer.finalized());
    EXPECT_THROW(writer.append(s, frame_record{}), invalid_argument_error);  // finalized
    EXPECT_THROW(writer.finalize(), invalid_argument_error);  // double finalize
}

// ---- container: corruption sweep -----------------------------------------

TEST(container, every_single_byte_flip_is_detected) {
    const frame_corpus corpus = synth_corpus(59, 3);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 2});
    const std::string bytes = out.str();

    // Every byte of the file is covered by a validation: header fields,
    // chunk checksums, the index checksum, or the footer's exact-fit and
    // magic checks. Flipping any one byte must surface as io_error — at
    // open or at the frame read that touches the poisoned chunk.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string bad = bytes;
        bad[i] = static_cast<char>(bad[i] ^ 0xff);
        std::istringstream in{bad};
        EXPECT_THROW(
            {
                container_reader reader{in};
                for (std::uint32_t s = 0; s < reader.stream_count(); ++s) {
                    for (std::uint64_t f = 0; f < reader.frame_count(s); ++f) {
                        (void)reader.frame(s, f);
                    }
                }
            },
            io_error)
            << "byte " << i << " of " << bytes.size();
    }
}

TEST(container, every_truncation_is_detected) {
    const frame_corpus corpus = synth_corpus(61, 3);
    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 2});
    const std::string bytes = out.str();
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        std::istringstream in{bytes.substr(0, keep)};
        EXPECT_THROW(
            {
                container_reader reader{in};
                for (std::uint64_t f = 0; f < reader.frame_count(0); ++f) {
                    (void)reader.frame(0, f);
                }
            },
            io_error)
            << "kept " << keep << " of " << bytes.size();
    }
}

TEST(container, rejects_header_tampering) {
    const frame_corpus corpus = synth_corpus(67, 2);
    std::ostringstream out;
    pack_corpus(out, corpus);
    const std::string bytes = out.str();

    auto patched = [&](std::size_t offset, std::uint16_t value) {
        std::string bad = bytes;
        std::memcpy(bad.data() + offset, &value, sizeof(value));
        return bad;
    };
    {  // future version
        std::istringstream in{patched(4, container_version + 1)};
        EXPECT_THROW(container_reader{in}, io_error);
    }
    {  // unknown header flags
        std::istringstream in{patched(6, 0x0001)};
        EXPECT_THROW(container_reader{in}, io_error);
    }
    {  // an envelope is not a container
        std::istringstream in{std::string{"HWMW then some junk that is long enough....."}};
        EXPECT_THROW(container_reader{in}, io_error);
    }
    {  // a corpus-set container is not a single corpus
        const auto path = std::filesystem::temp_directory_path() / "hawc_set_not_corpus.hwcc";
        pack_corpus_set_file(path, synth_set(2, 1));
        EXPECT_THROW(load_corpus_file(path), io_error);
        std::filesystem::remove(path);
    }
}

// ---- container: replay parity --------------------------------------------

TEST(container, replay_container_matches_replay_corpus_bit_for_bit) {
    const frame_corpus corpus = synth_corpus(71, 8);
    const extent_classifier classifier;

    frame_supervisor baseline_sup{det_config(), classifier};
    const replay_result baseline = replay_corpus(baseline_sup, corpus);

    std::ostringstream out;
    pack_corpus(out, corpus, {.frames_per_chunk = 3});
    std::istringstream in{out.str()};
    container_reader reader{in};
    frame_supervisor packed_sup{det_config(), classifier};
    const replay_result packed = replay_container(packed_sup, reader);

    ASSERT_EQ(packed.reports.size(), baseline.reports.size());
    for (std::size_t i = 0; i < baseline.reports.size(); ++i) {
        EXPECT_EQ(packed.reports[i].count, baseline.reports[i].count) << i;
        EXPECT_EQ(packed.reports[i].status, baseline.reports[i].status) << i;
    }
    EXPECT_EQ(packed.total_count, baseline.total_count);
    EXPECT_EQ(packed.absolute_count_error, baseline.absolute_count_error);
}

TEST(container, fleet_replay_from_container_matches_materialized_set) {
    const pole_corpus_set set = synth_set(3, 10);
    const extent_classifier classifier;

    auto make_fleet = [&]() {
        std::vector<fleet::pole_setup> setups(set.pole_count());
        for (std::size_t i = 0; i < set.pole_count(); ++i) {
            setups[i].pole_id = set.poles[i].pole_id;
            setups[i].seed = set.poles[i].corpus.base_seed;
            setups[i].supervisor = det_config();
            setups[i].primary = &classifier;
        }
        auto fleet = std::make_unique<fleet::fleet_manager>(fleet::fleet_config{}, setups);
        for (std::size_t i = 0; i < set.pole_count(); ++i) {
            fleet->pole(i).set_record_history(true);
        }
        return fleet;
    };

    auto baseline_fleet = make_fleet();
    const auto baseline = replay_corpus_set(*baseline_fleet, set, 8);

    std::ostringstream out;
    pack_corpus_set(out, set, {.frames_per_chunk = 4});
    std::istringstream in{out.str()};
    container_reader reader{in};
    auto packed_fleet = make_fleet();
    const auto packed = fleet::replay_container_set(*packed_fleet, reader, 8);

    EXPECT_EQ(packed.ticks, baseline.ticks);
    EXPECT_EQ(packed.frames_submitted, baseline.frames_submitted);
    // Round-robin streaming widened the cache to one chunk per pole.
    EXPECT_EQ(reader.cache_capacity(), set.pole_count());
    EXPECT_EQ(reader.chunks_decoded(), reader.chunks().size());
    for (std::size_t p = 0; p < set.pole_count(); ++p) {
        const auto& want = baseline_fleet->pole(p).history();
        const auto& got = packed_fleet->pole(p).history();
        ASSERT_EQ(got.size(), want.size()) << "pole " << p;
        for (std::size_t f = 0; f < want.size(); ++f) {
            EXPECT_EQ(got[f].count, want[f].count) << "pole " << p << " frame " << f;
            EXPECT_EQ(got[f].status, want[f].status) << "pole " << p << " frame " << f;
        }
    }
    EXPECT_EQ(baseline_fleet->snapshot().aggregate, packed_fleet->snapshot().aggregate);
}

TEST(container, fleet_replay_rejects_mismatched_containers) {
    const pole_corpus_set set = synth_set(2, 3);
    const extent_classifier classifier;
    std::vector<fleet::pole_setup> setups(2);
    for (std::size_t i = 0; i < 2; ++i) {
        setups[i].pole_id = set.poles[i].pole_id;
        setups[i].seed = set.poles[i].corpus.base_seed;
        setups[i].supervisor = det_config();
        setups[i].primary = &classifier;
    }
    fleet::fleet_manager fleet{{}, setups};

    {  // a plain corpus container is not a corpus set
        std::ostringstream out;
        pack_corpus(out, set.poles[0].corpus);
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_THROW(fleet::replay_container_set(fleet, reader), invalid_argument_error);
    }
    {  // stream seeds must match the fleet's pole seeds
        pole_corpus_set reseeded = set;
        reseeded.poles[1].corpus.base_seed ^= 1;
        std::ostringstream out;
        pack_corpus_set(out, reseeded);
        std::istringstream in{out.str()};
        container_reader reader{in};
        EXPECT_THROW(fleet::replay_container_set(fleet, reader), invalid_argument_error);
    }
}

}  // namespace
}  // namespace hawc::replay
