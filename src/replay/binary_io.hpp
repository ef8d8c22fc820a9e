#pragma once

// The shared binary envelope for every one-shot replay artifact (fp32
// weights, int8 models, object pools, postmortem bundles; recorded
// corpora are containers, container.hpp):
//
//   u32 magic | u16 version | u16 flags | u64 payload_size | u64 fnv1a64(payload) | payload
//
// Writers serialize the payload into a byte buffer first, so the checksum
// covers every payload byte. Readers validate magic, version, flags and
// checksum before parsing, and parse through a bounds-checked cursor — a
// corrupted or truncated file fails with a clean io_error, never with UB.
// All integers are little-endian native (the format targets the x86/ARM
// edge fleet, not archival interchange).
//
// Flags are feature bits, not free-form: a reader rejects any bit it does
// not understand, so a future format feature can never be silently
// misparsed by an old reader. The one defined bit, envelope_flag_compressed,
// marks an lz-compressed payload (codec.hpp): the stored payload is then
// `u64 uncompressed_size | compressed bytes`, the checksum still covers
// the stored (compressed) bytes, and read_envelope decompresses
// transparently — callers always receive the raw payload.

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hawc::replay {

/// FNV-1a 64-bit over a byte range; the integrity checksum of every
/// replay artifact.
std::uint64_t fnv1a64(const void* data, std::size_t size);

/// Envelope flag bits a current reader understands. Any other set bit is
/// a format from the future and fails the load with io_error.
inline constexpr std::uint16_t envelope_flag_compressed = 0x0001;
inline constexpr std::uint16_t envelope_known_flags = envelope_flag_compressed;

/// Append-only payload builder.
class byte_writer {
public:
    void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void i32(std::int32_t v) { raw(&v, sizeof(v)); }
    void f32(float v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    /// Length-prefixed UTF-8 string (u32 length). Throws io_error when
    /// the string cannot fit the u32 prefix — silently truncating the
    /// length while raw() writes every byte would produce a corrupt,
    /// self-inconsistent payload.
    void str(std::string_view s);

    /// Raw bytes, caller-framed.
    void raw(const void* data, std::size_t size);

    const std::vector<char>& bytes() const { return bytes_; }

private:
    std::vector<char> bytes_;
};

/// Bounds-checked payload cursor. Every read throws io_error on overrun,
/// so malformed interiors surface as clean parse errors.
class byte_reader {
public:
    byte_reader(const char* data, std::size_t size) : data_{data}, size_{size} {}
    explicit byte_reader(const std::vector<char>& bytes)
        : byte_reader(bytes.data(), bytes.size()) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int32_t i32();
    float f32();
    double f64();
    std::string str();
    void raw(void* out, std::size_t size);

    std::size_t remaining() const { return size_ - offset_; }
    bool exhausted() const { return offset_ == size_; }

    /// Require that the whole payload was consumed (trailing garbage is a
    /// format error, not padding).
    void expect_exhausted(const char* what) const;

private:
    const char* cursor(std::size_t need, const char* what);

    const char* data_;
    std::size_t size_;
    std::size_t offset_ = 0;
};

/// Write `payload` to `out` under the envelope header (flags = 0).
void write_envelope(std::ostream& out, std::uint32_t magic, std::uint16_t version,
                    const byte_writer& payload);

/// Write `payload` lz-compressed under the envelope header with
/// envelope_flag_compressed set. read_envelope decompresses
/// transparently; readers predating the flag reject the artifact cleanly
/// instead of misparsing the compressed bytes.
void write_envelope_compressed(std::ostream& out, std::uint32_t magic, std::uint16_t version,
                               const byte_writer& payload);

/// Read and validate an envelope: magic must equal `magic`, version must
/// be <= `max_version` (and >= 1), flags must only carry known bits, and
/// the checksum must match. A compressed payload is decompressed before
/// returning. Returns the payload bytes and the stored version. Throws
/// io_error otherwise.
struct envelope {
    std::uint16_t version = 0;
    std::vector<char> payload;
};
envelope read_envelope(std::istream& in, std::uint32_t magic, std::uint16_t max_version,
                       const char* what);

}  // namespace hawc::replay
