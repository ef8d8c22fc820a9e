#include "replay/container.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "replay/codec.hpp"
#include "replay/corpus_set.hpp"

namespace hawc::replay {

namespace {

constexpr std::uint64_t header_size = 8;   // magic + version + flags
constexpr std::uint64_t footer_size = 28;  // index offset + size + checksum + magic

void write_header(std::ostream& out) {
    const std::uint32_t magic = container_magic;
    const std::uint16_t version = container_version;
    const std::uint16_t flags = 0;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
    if (!out) throw io_error{"container: header write failed"};
}

}  // namespace

// ---- writer --------------------------------------------------------------

container_writer::container_writer(std::ostream& out, container_kind kind, std::string title,
                                   container_options options)
    : out_{out}, kind_{kind}, title_{std::move(title)}, options_{options} {
    HAWC_REQUIRE(options_.frames_per_chunk > 0, "frames_per_chunk must be positive");
    write_header(out_);
    offset_ = header_size;
}

std::uint32_t container_writer::add_stream(std::string pole_id, std::string name,
                                           std::uint64_t base_seed) {
    HAWC_REQUIRE(!finalized_, "container already finalized");
    container_stream_info info;
    info.pole_id = std::move(pole_id);
    info.name = std::move(name);
    info.base_seed = base_seed;
    streams_.push_back(std::move(info));
    open_.emplace_back();
    return static_cast<std::uint32_t>(streams_.size() - 1);
}

void container_writer::append(std::uint32_t stream, const frame_record& frame) {
    HAWC_REQUIRE(!finalized_, "container already finalized");
    HAWC_REQUIRE(stream < streams_.size(), "unknown container stream");
    open_chunk& chunk = open_[stream];
    write_frame_record(chunk.frames, frame);
    ++chunk.frame_count;
    ++streams_[stream].frame_count;
    ++frames_appended_;
    if (chunk.frame_count >= options_.frames_per_chunk ||
        chunk.frames.bytes().size() >= container_max_chunk_bytes / 2) {
        flush_chunk(stream);
    }
}

void container_writer::flush_chunk(std::uint32_t stream) {
    open_chunk& chunk = open_[stream];
    if (chunk.frame_count == 0) return;
    const std::vector<char>& raw = chunk.frames.bytes();

    chunk_entry entry;
    entry.stream = stream;
    entry.file_offset = offset_;
    entry.uncompressed_size = raw.size();
    entry.first_frame = chunk.first_frame;
    entry.frame_count = chunk.frame_count;

    const char* stored = raw.data();
    std::size_t stored_size = raw.size();
    lz_compress_into(raw.data(), raw.size(), scratch_);
    if (scratch_.size() < raw.size()) {
        entry.codec = chunk_codec::lz;
        stored = scratch_.data();
        stored_size = scratch_.size();
    }
    entry.stored_size = stored_size;
    entry.checksum = fnv1a64(stored, stored_size);
    out_.write(stored, static_cast<std::streamsize>(stored_size));
    if (!out_) throw io_error{"container: chunk write failed"};

    offset_ += stored_size;
    chunks_.push_back(entry);
    chunk.frames = byte_writer{};
    chunk.first_frame += chunk.frame_count;
    chunk.frame_count = 0;
}

std::uint64_t container_writer::bytes_buffered() const {
    std::uint64_t total = 0;
    for (const open_chunk& chunk : open_) total += chunk.frames.bytes().size();
    return total;
}

void container_writer::finalize() {
    HAWC_REQUIRE(!finalized_, "container already finalized");
    for (std::uint32_t s = 0; s < open_.size(); ++s) flush_chunk(s);

    byte_writer index;
    index.u8(static_cast<std::uint8_t>(kind_));
    index.str(title_);
    index.u32(static_cast<std::uint32_t>(options_.frames_per_chunk));
    index.u32(static_cast<std::uint32_t>(streams_.size()));
    for (const container_stream_info& info : streams_) {
        index.str(info.pole_id);
        index.str(info.name);
        index.u64(info.base_seed);
        index.u64(info.frame_count);
    }
    index.u32(static_cast<std::uint32_t>(chunks_.size()));
    for (const chunk_entry& entry : chunks_) {
        index.u32(entry.stream);
        index.u64(entry.file_offset);
        index.u64(entry.stored_size);
        index.u64(entry.uncompressed_size);
        index.u64(entry.first_frame);
        index.u32(entry.frame_count);
        index.u8(static_cast<std::uint8_t>(entry.codec));
        index.u64(entry.checksum);
    }

    const std::uint64_t index_offset = offset_;
    const auto index_size = static_cast<std::uint64_t>(index.bytes().size());
    const std::uint64_t index_checksum = fnv1a64(index.bytes().data(), index.bytes().size());
    const std::uint32_t magic = container_magic;
    out_.write(index.bytes().data(), static_cast<std::streamsize>(index.bytes().size()));
    out_.write(reinterpret_cast<const char*>(&index_offset), sizeof(index_offset));
    out_.write(reinterpret_cast<const char*>(&index_size), sizeof(index_size));
    out_.write(reinterpret_cast<const char*>(&index_checksum), sizeof(index_checksum));
    out_.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    if (!out_) throw io_error{"container: index write failed"};
    finalized_ = true;
}

// ---- reader --------------------------------------------------------------

container_reader::container_reader(std::istream& in, container_reader_options options)
    : in_{&in}, options_{options} {
    HAWC_REQUIRE(options_.cached_chunks > 0, "chunk cache needs at least one slot");
    open_and_validate();
}

container_reader::container_reader(const std::filesystem::path& path,
                                   container_reader_options options)
    : owned_{path, std::ios::binary}, in_{&owned_}, options_{options} {
    HAWC_REQUIRE(options_.cached_chunks > 0, "chunk cache needs at least one slot");
    if (!owned_) throw io_error{"cannot open " + path.string()};
    open_and_validate();
}

void container_reader::open_and_validate() {
    std::istream& in = *in_;
    in.clear();
    in.seekg(0, std::ios::end);
    const std::streamoff end = in.tellg();
    if (!in || end < 0) throw io_error{"container: not seekable"};
    const auto file_size = static_cast<std::uint64_t>(end);
    if (file_size < header_size + footer_size) {
        throw io_error{"container: file too small for header and footer"};
    }

    // Header.
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t flags = 0;
    in.seekg(0, std::ios::beg);
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    in.read(reinterpret_cast<char*>(&flags), sizeof(flags));
    if (!in) throw io_error{"container: truncated header"};
    if (magic != container_magic) throw io_error{"container: bad magic"};
    if (version == 0 || version > container_version) {
        throw io_error{"container: unsupported format version " + std::to_string(version)};
    }
    if (flags != 0) throw io_error{"container: unknown header flag bits"};

    // Footer.
    std::uint64_t index_offset = 0;
    std::uint64_t index_size = 0;
    std::uint64_t index_checksum = 0;
    std::uint32_t trailing_magic = 0;
    in.seekg(static_cast<std::streamoff>(file_size - footer_size), std::ios::beg);
    in.read(reinterpret_cast<char*>(&index_offset), sizeof(index_offset));
    in.read(reinterpret_cast<char*>(&index_size), sizeof(index_size));
    in.read(reinterpret_cast<char*>(&index_checksum), sizeof(index_checksum));
    in.read(reinterpret_cast<char*>(&trailing_magic), sizeof(trailing_magic));
    if (!in) throw io_error{"container: truncated footer"};
    if (trailing_magic != container_magic) throw io_error{"container: bad footer magic"};
    // The index must fill the gap between the chunk region and the footer
    // exactly — a tampered offset or size cannot pass this and the
    // checksum together.
    if (index_offset < header_size || index_size > file_size ||
        index_offset + index_size != file_size - footer_size) {
        throw io_error{"container: footer index bounds are inconsistent"};
    }

    std::vector<char> index_bytes(static_cast<std::size_t>(index_size));
    in.seekg(static_cast<std::streamoff>(index_offset), std::ios::beg);
    in.read(index_bytes.data(), static_cast<std::streamsize>(index_bytes.size()));
    if (!in || static_cast<std::uint64_t>(in.gcount()) != index_size) {
        throw io_error{"container: truncated index"};
    }
    if (fnv1a64(index_bytes.data(), index_bytes.size()) != index_checksum) {
        throw io_error{"container: index checksum mismatch"};
    }

    byte_reader index{index_bytes};
    const std::uint8_t kind = index.u8();
    if (kind > static_cast<std::uint8_t>(container_kind::corpus_set)) {
        throw io_error{"container: unknown container kind"};
    }
    kind_ = static_cast<container_kind>(kind);
    title_ = index.str();
    const std::uint32_t frames_per_chunk = index.u32();
    if (frames_per_chunk == 0) throw io_error{"container: zero frames_per_chunk"};

    const std::uint32_t stream_count = index.u32();
    if (stream_count > index_size) throw io_error{"container: implausible stream count"};
    streams_.clear();
    streams_.reserve(stream_count);
    for (std::uint32_t s = 0; s < stream_count; ++s) {
        container_stream_info info;
        info.pole_id = index.str();
        info.name = index.str();
        info.base_seed = index.u64();
        info.frame_count = index.u64();
        streams_.push_back(std::move(info));
    }

    const std::uint32_t chunk_count = index.u32();
    if (chunk_count > index_size) throw io_error{"container: implausible chunk count"};
    chunks_.clear();
    chunks_.reserve(chunk_count);
    stream_chunks_.assign(streams_.size(), {});
    // Chunks are validated structurally as they parse: offsets must lie in
    // the chunk region, sizes under the decode cap, and each stream's
    // chunks must tile [0, frame_count) contiguously in file order.
    std::vector<std::uint64_t> next_frame(streams_.size(), 0);
    for (std::uint32_t c = 0; c < chunk_count; ++c) {
        chunk_entry entry;
        entry.stream = index.u32();
        entry.file_offset = index.u64();
        entry.stored_size = index.u64();
        entry.uncompressed_size = index.u64();
        entry.first_frame = index.u64();
        entry.frame_count = index.u32();
        const std::uint8_t codec = index.u8();
        entry.checksum = index.u64();
        if (entry.stream >= streams_.size()) {
            throw io_error{"container: chunk references an unknown stream"};
        }
        if (codec > static_cast<std::uint8_t>(chunk_codec::lz)) {
            throw io_error{"container: unknown chunk codec"};
        }
        entry.codec = static_cast<chunk_codec>(codec);
        if (entry.file_offset < header_size || entry.stored_size > index_offset ||
            entry.file_offset + entry.stored_size > index_offset) {
            throw io_error{"container: chunk bytes outside the chunk region"};
        }
        if (entry.uncompressed_size > container_max_chunk_bytes ||
            entry.stored_size > container_max_chunk_bytes) {
            throw io_error{"container: chunk exceeds the decode cap"};
        }
        if (entry.codec == chunk_codec::raw &&
            entry.stored_size != entry.uncompressed_size) {
            throw io_error{"container: raw chunk with inconsistent sizes"};
        }
        if (entry.frame_count == 0) throw io_error{"container: empty chunk"};
        if (entry.first_frame != next_frame[entry.stream]) {
            throw io_error{"container: chunk frame ranges are not contiguous"};
        }
        next_frame[entry.stream] = entry.first_frame + entry.frame_count;
        stream_chunks_[entry.stream].push_back(chunks_.size());
        chunks_.push_back(entry);
    }
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        if (next_frame[s] != streams_[s].frame_count) {
            throw io_error{"container: stream frame count disagrees with its chunks"};
        }
    }
    index.expect_exhausted("container index");
}

const container_stream_info& container_reader::stream(std::uint32_t s) const {
    HAWC_REQUIRE(s < streams_.size(), "unknown container stream");
    return streams_[s];
}

void container_reader::set_cache_capacity(std::size_t chunks) {
    HAWC_REQUIRE(chunks > 0, "chunk cache needs at least one slot");
    options_.cached_chunks = chunks;
    while (cache_.size() > options_.cached_chunks) cache_.pop_back();
}

const frame_record& container_reader::frame(std::uint32_t s, std::uint64_t index) {
    const container_stream_info& info = stream(s);
    if (index >= info.frame_count) {
        throw io_error{"container: frame " + std::to_string(index) + " out of range for '" +
                       info.name + "' (" + std::to_string(info.frame_count) + " frames)"};
    }
    // Binary search the stream's chunk list for the one covering `index`.
    const std::vector<std::size_t>& owned = stream_chunks_[s];
    auto it = std::upper_bound(owned.begin(), owned.end(), index,
                               [this](std::uint64_t frame_idx, std::size_t entry) {
                                   return frame_idx < chunks_[entry].first_frame;
                               });
    HAWC_REQUIRE(it != owned.begin(), "container index invariant violated");
    const std::size_t entry = *(it - 1);
    const cached_chunk& chunk = load_chunk(entry);
    return chunk.frames[static_cast<std::size_t>(index - chunks_[entry].first_frame)];
}

const container_reader::cached_chunk& container_reader::load_chunk(std::size_t entry) {
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->entry == entry) {
            cache_.splice(cache_.begin(), cache_, it);  // mark most recent
            return cache_.front();
        }
    }
    const chunk_entry& meta = chunks_[entry];
    std::istream& in = *in_;
    in.clear();
    std::vector<char> stored(static_cast<std::size_t>(meta.stored_size));
    in.seekg(static_cast<std::streamoff>(meta.file_offset), std::ios::beg);
    in.read(stored.data(), static_cast<std::streamsize>(stored.size()));
    if (!in || static_cast<std::uint64_t>(in.gcount()) != meta.stored_size) {
        throw io_error{"container: truncated chunk"};
    }
    if (fnv1a64(stored.data(), stored.size()) != meta.checksum) {
        throw io_error{"container: chunk checksum mismatch (corrupted chunk)"};
    }

    std::vector<char> raw;
    if (meta.codec == chunk_codec::lz) {
        raw = lz_decompress(stored.data(), stored.size(),
                            static_cast<std::size_t>(meta.uncompressed_size));
    } else {
        raw = std::move(stored);
    }

    cached_chunk chunk;
    chunk.entry = entry;
    chunk.frames.reserve(meta.frame_count);
    byte_reader frames{raw};
    for (std::uint32_t f = 0; f < meta.frame_count; ++f) {
        chunk.frames.push_back(read_frame_record(frames));
    }
    frames.expect_exhausted("container chunk");
    ++chunks_decoded_;

    cache_.push_front(std::move(chunk));
    while (cache_.size() > options_.cached_chunks) cache_.pop_back();
    return cache_.front();
}

// ---- convenience wrappers ------------------------------------------------

void pack_corpus(std::ostream& out, const frame_corpus& corpus, container_options options) {
    container_writer writer{out, container_kind::corpus, corpus.name, options};
    const std::uint32_t stream = writer.add_stream("", corpus.name, corpus.base_seed);
    for (const frame_record& frame : corpus.frames) writer.append(stream, frame);
    writer.finalize();
}

void pack_corpus_set(std::ostream& out, const pole_corpus_set& set,
                     container_options options) {
    container_writer writer{out, container_kind::corpus_set, set.name, options};
    for (const pole_corpus& pole : set.poles) {
        writer.add_stream(pole.pole_id, pole.corpus.name, pole.corpus.base_seed);
    }
    // Interleave pole frames in tick order — the layout a streaming fleet
    // replay reads — instead of pole-after-pole.
    std::size_t longest = 0;
    for (const pole_corpus& pole : set.poles) longest = std::max(longest, pole.corpus.size());
    for (std::size_t frame = 0; frame < longest; ++frame) {
        for (std::uint32_t s = 0; s < set.poles.size(); ++s) {
            const frame_corpus& corpus = set.poles[s].corpus;
            if (frame < corpus.size()) writer.append(s, corpus.frames[frame]);
        }
    }
    writer.finalize();
}

void pack_corpus_set_file(const std::filesystem::path& path, const pole_corpus_set& set,
                          container_options options) {
    std::ofstream out{path, std::ios::binary};
    if (!out) throw io_error{"cannot open " + path.string() + " for writing"};
    pack_corpus_set(out, set, options);
    if (!out) throw io_error{"failed writing " + path.string()};
}

frame_corpus unpack_corpus(container_reader& reader, std::uint32_t stream) {
    const container_stream_info& info = reader.stream(stream);
    frame_corpus corpus;
    corpus.name = info.name;
    corpus.base_seed = info.base_seed;
    corpus.frames.reserve(static_cast<std::size_t>(info.frame_count));
    for (std::uint64_t i = 0; i < info.frame_count; ++i) {
        corpus.frames.push_back(reader.frame(stream, i));
    }
    return corpus;
}

pole_corpus_set unpack_corpus_set(container_reader& reader) {
    if (reader.kind() != container_kind::corpus_set) {
        throw io_error{"container is not a pole corpus set"};
    }
    pole_corpus_set set;
    set.name = reader.title();
    set.poles.reserve(reader.stream_count());
    for (std::uint32_t s = 0; s < reader.stream_count(); ++s) {
        pole_corpus pole;
        pole.pole_id = reader.stream(s).pole_id;
        pole.corpus = unpack_corpus(reader, s);
        set.poles.push_back(std::move(pole));
    }
    return set;
}

pole_corpus_set unpack_corpus_set_file(const std::filesystem::path& path) {
    container_reader reader{path};
    return unpack_corpus_set(reader);
}

void save_corpus_file(const std::filesystem::path& path, const frame_corpus& corpus) {
    std::ofstream out{path, std::ios::binary};
    if (!out) throw io_error{"cannot open " + path.string() + " for writing"};
    pack_corpus(out, corpus);
    if (!out) throw io_error{"failed writing " + path.string()};
}

frame_corpus load_corpus_file(const std::filesystem::path& path) {
    container_reader reader{path};
    if (reader.kind() != container_kind::corpus) {
        throw io_error{path.string() + " is not a single-corpus container"};
    }
    return unpack_corpus(reader);
}

}  // namespace hawc::replay
