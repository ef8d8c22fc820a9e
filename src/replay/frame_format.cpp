#include "replay/frame_format.hpp"

#include "common/error.hpp"
#include "replay/binary_io.hpp"

namespace hawc::replay {

std::size_t frame_corpus::total_points() const {
    std::size_t total = 0;
    for (const auto& f : frames) total += f.cloud.size();
    return total;
}

point_cloud round_to_recorded(const point_cloud& cloud) {
    point_cloud rounded;
    rounded.reserve(cloud.size());
    for (const auto& p : cloud) {
        rounded.push_back({static_cast<double>(static_cast<float>(p.x)),
                           static_cast<double>(static_cast<float>(p.y)),
                           static_cast<double>(static_cast<float>(p.z))});
    }
    return rounded;
}

void write_frame_record(byte_writer& out, const frame_record& frame) {
    out.u32(frame.ground_truth);
    out.u64(static_cast<std::uint64_t>(frame.cloud.size()));
    for (const auto& p : frame.cloud) {
        out.f32(static_cast<float>(p.x));
        out.f32(static_cast<float>(p.y));
        out.f32(static_cast<float>(p.z));
    }
}

frame_record read_frame_record(byte_reader& in) {
    frame_record frame;
    frame.ground_truth = in.u32();
    const std::uint64_t point_count = in.u64();
    if (point_count > in.remaining() / 12) {  // 3 x f32 per point
        throw io_error{"frame record: implausible point count"};
    }
    frame.cloud.reserve(static_cast<std::size_t>(point_count));
    for (std::uint64_t i = 0; i < point_count; ++i) {
        const double x = in.f32();
        const double y = in.f32();
        const double z = in.f32();
        frame.cloud.push_back({x, y, z});
    }
    return frame;
}

}  // namespace hawc::replay
