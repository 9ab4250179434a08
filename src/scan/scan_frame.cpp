#include "scan/scan_frame.h"

namespace v6h::scan {

void ScanFrame::reset(int day, const ipv6::Address* addrs,
                      std::size_t row_count) {
  day_ = day;
  addrs_ = addrs;
  masks_.assign(row_count, 0);
  rows_.clear();
  responsive_.fill(0);
  responsive_any_ = 0;
}

void ScanFrame::admit(const std::uint32_t* rows, std::size_t count) {
  rows_.assign(rows, rows + count);
}

void ScanFrame::admit_iota(std::size_t count) {
  rows_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows_[i] = static_cast<std::uint32_t>(i);
  }
}

void ScanFrame::finish() {
  for (const auto row : rows_) {
    const net::ProtocolMask mask = masks_[row];
    if (mask == 0) continue;
    ++responsive_any_;
    for (std::size_t p = 0; p < net::kProtocolCount; ++p) {
      responsive_[p] += (mask >> p) & 1u;
    }
  }
}

}  // namespace v6h::scan
