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

void ScanFrame::admit_unaliased(const char* aliased, std::size_t limit) {
  rows_.clear();
  const std::size_t row_count = masks_.size();
  for (std::size_t row = 0; row < row_count && rows_.size() < limit; ++row) {
    if (aliased[row] == 0) rows_.push_back(static_cast<std::uint32_t>(row));
  }
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
