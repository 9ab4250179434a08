#pragma once

// Section 6's cross-protocol response statistics (Figure 7).

#include <array>
#include <cstddef>
#include <cstdint>

#include "net/protocol.h"

namespace v6h::probe {

/// Figure 7's cross-protocol tally: feed each admitted target's
/// response mask (ScanFrame::mask_of_row over the frame's rows()) and
/// read matrix()[y][x] = Pr[protocol y responded | protocol x
/// responded].
class CrossProtocolTally {
 public:
  void add(net::ProtocolMask mask) {
    if (mask == 0) return;
    for (std::size_t x = 0; x < net::kProtocolCount; ++x) {
      if (((mask >> x) & 1u) == 0) continue;
      ++marginal_[x];
      for (std::size_t y = 0; y < net::kProtocolCount; ++y) {
        joint_[y][x] += (mask >> y) & 1u;
      }
    }
  }

  std::array<std::array<double, net::kProtocolCount>, net::kProtocolCount>
  matrix() const {
    std::array<std::array<double, net::kProtocolCount>, net::kProtocolCount>
        out{};
    for (std::size_t y = 0; y < net::kProtocolCount; ++y) {
      for (std::size_t x = 0; x < net::kProtocolCount; ++x) {
        out[y][x] = marginal_[x] == 0 ? 0.0
                                      : static_cast<double>(joint_[y][x]) /
                                            static_cast<double>(marginal_[x]);
      }
    }
    return out;
  }

 private:
  std::array<std::array<std::uint64_t, net::kProtocolCount>,
             net::kProtocolCount>
      joint_{};
  std::array<std::uint64_t, net::kProtocolCount> marginal_{};
};

}  // namespace v6h::probe
