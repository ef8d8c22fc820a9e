#include "fleet/pole_link.hpp"

#include <cstring>

#include "replay/binary_io.hpp"

namespace hawc::fleet {

std::uint64_t message_checksum(const link_message& msg) {
    replay::byte_writer bytes;
    bytes.u64(msg.frame_index);
    bytes.u32(msg.ground_truth);
    bytes.u64(static_cast<std::uint64_t>(msg.cloud.size()));
    for (const auto& p : msg.cloud) {
        bytes.f64(p.x);
        bytes.f64(p.y);
        bytes.f64(p.z);
    }
    return replay::fnv1a64(bytes.bytes().data(), bytes.bytes().size());
}

bool verify_checksum(const link_message& msg) {
    return msg.checksum == message_checksum(msg);
}

namespace {

// A delayed message is held for 1..delay_ticks_max ticks.
constexpr std::size_t delay_ticks_max = 3;

// Flip the lowest mantissa bit of one coordinate: the smallest on-wire
// corruption a checksum must still catch.
void flip_coordinate_bit(double& value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    bits ^= 1ull;
    std::memcpy(&value, &bits, sizeof value);
}

}  // namespace

void pole_link::send(link_message msg) {
    ++stats_.sent;
    msg.checksum = message_checksum(msg);

    if (chaos_.chance(config_.drop_prob)) {
        ++stats_.dropped;
        return;
    }

    if (chaos_.chance(config_.corrupt_prob)) {
        ++stats_.corrupted;
        if (msg.cloud.empty()) {
            msg.checksum ^= 1ull;
        } else {
            const auto i =
                static_cast<std::size_t>(chaos_.uniform_index(msg.cloud.size()));
            switch (chaos_.uniform_index(3)) {
                case 0: flip_coordinate_bit(msg.cloud[i].x); break;
                case 1: flip_coordinate_bit(msg.cloud[i].y); break;
                default: flip_coordinate_bit(msg.cloud[i].z); break;
            }
        }
    }

    std::size_t due_in = 0;
    if (chaos_.chance(config_.delay_prob)) {
        ++stats_.delayed;
        due_in = 1 + static_cast<std::size_t>(chaos_.uniform_index(delay_ticks_max));
    }

    const bool duplicate = chaos_.chance(config_.duplicate_prob);
    const bool reorder = !queue_.empty() && chaos_.chance(config_.reorder_prob);

    in_flight entry{std::move(msg), due_in};
    if (reorder) {
        ++stats_.reordered;
        // Jump ahead of the current queue head: the classic UDP
        // overtaking pattern.
        queue_.push_front(entry);
    } else {
        queue_.push_back(entry);
    }
    if (duplicate) {
        ++stats_.duplicated;
        queue_.push_back(std::move(entry));
    }
}

std::vector<link_message> pole_link::receive() {
    std::vector<link_message> due;
    std::deque<in_flight> still_pending;
    for (auto& entry : queue_) {
        if (entry.due_in == 0) {
            ++stats_.delivered;
            due.push_back(std::move(entry.msg));
        } else {
            --entry.due_in;
            still_pending.push_back(std::move(entry));
        }
    }
    queue_ = std::move(still_pending);
    return due;
}

}  // namespace hawc::fleet
