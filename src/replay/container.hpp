#pragma once

// "HWCC" — the chunked, indexed, compressed corpus container: the one
// on-disk format for recorded corpora, from a single golden corpus
// (container_kind::corpus, save_corpus_file / load_corpus_file) to a
// multi-pole fleet recording (container_kind::corpus_set). Unlike the
// slurp-whole model envelope (binary_io.hpp), a container streams —
// readers seek by frame number and decompress one chunk at a time, so a
// multi-hour multi-pole recording replays with memory bounded by a
// chunk, not the corpus.
//
// File layout:
//
//   [header  8B]  u32 magic "HWCC" | u16 version | u16 flags (must be 0)
//   [chunk bytes ...]          lz-compressed (codec.hpp) or raw frame runs
//   [index]                    byte_writer payload, see below
//   [footer 28B]  u64 index_offset | u64 index_size | u64 fnv1a64(index)
//                 | u32 magic again
//
// The index is trailing so writers stream chunks append-only and write
// the index exactly once at finalize(). It carries the container kind
// (single corpus vs pole corpus set), a title, the stream table (one
// entry per recorded pole: pole id, corpus name, base seed, frame
// count), and one entry per chunk: owning stream, file offset, stored /
// uncompressed sizes, first frame + frame count, codec id, and an
// fnv1a64 over the stored bytes. Every chunk is therefore independently
// checksummed: corruption localises to one chunk and surfaces as a clean
// io_error when (and only when) that chunk is read.
//
// Chunk payloads are runs of the shared frame wire layout
// (frame_format.hpp::write_frame_record), so a round_to_recorded corpus
// round-trips bit-exactly. A chunk the codec cannot shrink is stored
// raw, so compression never grows a file.
//
// Readers validate before trusting: header magic/version/flags, footer
// magic and offset/size consistency against the real file size, the
// index checksum, then structural invariants of the parsed index (chunk
// ranges contiguous per stream, offsets inside the chunk region, sizes
// under the decode cap). A flipped byte anywhere in header, index or
// footer — and any truncation — fails with io_error, never UB and never
// an unbounded allocation.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <list>
#include <string>
#include <vector>

#include "replay/binary_io.hpp"
#include "replay/frame_format.hpp"

namespace hawc::replay {

struct pole_corpus_set;  // corpus_set.hpp

inline constexpr std::uint32_t container_magic = 0x43435748;  // "HWCC"
inline constexpr std::uint16_t container_version = 1;

/// Largest uncompressed chunk a reader will decode (64 MiB). Writers stay
/// far below it; the cap bounds what a corrupt index can make a reader
/// allocate.
inline constexpr std::uint64_t container_max_chunk_bytes = std::uint64_t{64} << 20;

enum class container_kind : std::uint8_t {
    corpus = 0,      // one frame stream
    corpus_set = 1,  // one stream per pole
};

enum class chunk_codec : std::uint8_t {
    raw = 0,  // stored bytes == frame bytes (lz would not shrink the chunk)
    lz = 1,   // codec.hpp token stream
};

struct container_options {
    /// Frames buffered per chunk. Larger chunks compress better (more
    /// cross-frame redundancy in the match window) but raise the
    /// streaming reader's per-chunk memory bound.
    std::size_t frames_per_chunk = 64;
};

struct container_stream_info {
    std::string pole_id;  // empty in a container_kind::corpus container
    std::string name;     // the corpus name
    std::uint64_t base_seed = 0;
    std::uint64_t frame_count = 0;
};

struct chunk_entry {
    std::uint32_t stream = 0;
    std::uint64_t file_offset = 0;
    std::uint64_t stored_size = 0;
    std::uint64_t uncompressed_size = 0;
    std::uint64_t first_frame = 0;  // within the owning stream
    std::uint32_t frame_count = 0;
    chunk_codec codec = chunk_codec::raw;
    std::uint64_t checksum = 0;  // fnv1a64 of the stored bytes
};

/// Append-only streaming writer. Declare streams, append frames in any
/// stream order, finalize once; chunks flush to the output as they fill,
/// so writer memory is bounded by one open chunk per stream.
class container_writer {
public:
    container_writer(std::ostream& out, container_kind kind, std::string title,
                     container_options options = {});

    /// Register a stream before appending to it. Returns its id.
    std::uint32_t add_stream(std::string pole_id, std::string name, std::uint64_t base_seed);

    /// Buffer one frame; flushes a compressed chunk when the buffer
    /// reaches frames_per_chunk.
    void append(std::uint32_t stream, const frame_record& frame);

    /// Flush every open chunk and write the index + footer. Must be
    /// called exactly once; append() is invalid afterwards.
    void finalize();

    bool finalized() const { return finalized_; }
    std::uint64_t frames_appended() const { return frames_appended_; }
    std::uint64_t chunks_written() const { return chunks_.size(); }
    std::uint64_t bytes_buffered() const;

private:
    struct open_chunk {
        byte_writer frames;
        std::uint64_t first_frame = 0;
        std::uint32_t frame_count = 0;
    };

    void flush_chunk(std::uint32_t stream);

    std::ostream& out_;
    container_kind kind_;
    std::string title_;
    container_options options_;
    std::vector<container_stream_info> streams_;
    std::vector<open_chunk> open_;
    std::vector<chunk_entry> chunks_;
    std::vector<char> scratch_;  // compressed-chunk staging, reused
    std::uint64_t offset_ = 0;   // next chunk's file offset
    std::uint64_t frames_appended_ = 0;
    bool finalized_ = false;
};

struct container_reader_options {
    /// Decompressed chunks kept hot (LRU). 1 is the streaming default —
    /// sequential replay then holds exactly one chunk; raise it to the
    /// pole count when round-robining streams (fleet replay).
    std::size_t cached_chunks = 1;
};

/// Index-validated random/sequential access over an open container.
/// frame(s, i) seeks the owning chunk through the index and serves it
/// from the LRU cache, so a sequential walk decodes each chunk exactly
/// once and holds cached_chunks of them.
class container_reader {
public:
    /// The stream must be seekable and outlive the reader.
    explicit container_reader(std::istream& in, container_reader_options options = {});
    /// Convenience: open and own a file stream.
    explicit container_reader(const std::filesystem::path& path,
                              container_reader_options options = {});

    container_kind kind() const { return kind_; }
    const std::string& title() const { return title_; }
    std::size_t stream_count() const { return streams_.size(); }
    const container_stream_info& stream(std::uint32_t s) const;
    std::uint64_t frame_count(std::uint32_t s) const { return stream(s).frame_count; }
    const std::vector<chunk_entry>& chunks() const { return chunks_; }

    /// Frame `index` of stream `s`. The reference stays valid until the
    /// owning chunk is evicted (any later frame() call may evict).
    const frame_record& frame(std::uint32_t s, std::uint64_t index);

    void set_cache_capacity(std::size_t chunks);
    std::size_t cache_capacity() const { return options_.cached_chunks; }
    std::size_t cached_chunk_count() const { return cache_.size(); }
    /// Chunks decoded so far — a sequential walk over the whole container
    /// ends with exactly chunks().size() of them (proof of streaming).
    std::uint64_t chunks_decoded() const { return chunks_decoded_; }

private:
    struct cached_chunk {
        std::size_t entry = 0;  // index into chunks_
        std::vector<frame_record> frames;
    };

    void open_and_validate();
    const cached_chunk& load_chunk(std::size_t entry);

    std::ifstream owned_;
    std::istream* in_;
    container_reader_options options_;
    container_kind kind_ = container_kind::corpus;
    std::string title_;
    std::vector<container_stream_info> streams_;
    std::vector<chunk_entry> chunks_;
    std::vector<std::vector<std::size_t>> stream_chunks_;  // per stream, by first_frame
    std::list<cached_chunk> cache_;                        // front = most recent
    std::uint64_t chunks_decoded_ = 0;
};

// ---- corpus / corpus-set convenience wrappers ----------------------------

void pack_corpus(std::ostream& out, const frame_corpus& corpus, container_options options = {});
void pack_corpus_set(std::ostream& out, const pole_corpus_set& set,
                     container_options options = {});
void pack_corpus_set_file(const std::filesystem::path& path, const pole_corpus_set& set,
                          container_options options = {});

/// Materialize a whole stream / set back into memory (the non-streaming
/// convenience path; bit-exact inverse of pack_*).
frame_corpus unpack_corpus(container_reader& reader, std::uint32_t stream = 0);
pole_corpus_set unpack_corpus_set(container_reader& reader);
pole_corpus_set unpack_corpus_set_file(const std::filesystem::path& path);

/// The corpus file pair: a container_kind::corpus container holding one
/// stream. load_corpus_file rejects any other kind with io_error.
void save_corpus_file(const std::filesystem::path& path, const frame_corpus& corpus);
frame_corpus load_corpus_file(const std::filesystem::path& path);

}  // namespace hawc::replay
