// Symmetric matrix with packed upper-triangular storage.
//
// Correlation matrices for n symbols need n(n+1)/2 doubles, not n²; for the
// paper's 8000-stock aspiration that is the difference between 256 MB and
// 512 MB per snapshot. Diagonal defaults to 1 (correlation convention is the
// caller's responsibility via fill_diagonal / set).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace mm::stats {

class SymMatrix {
 public:
  SymMatrix() = default;
  explicit SymMatrix(std::size_t n, double fill = 0.0)
      : n_(n), data_(n * (n + 1) / 2, fill) {}

  std::size_t size() const { return n_; }

  double operator()(std::size_t i, std::size_t j) const { return data_[index(i, j)]; }

  void set(std::size_t i, std::size_t j, double value) { data_[index(i, j)] = value; }

  void fill_diagonal(double value) {
    for (std::size_t i = 0; i < n_; ++i) set(i, i, value);
  }

  // Packed element count and raw access (for message transport).
  std::size_t packed_size() const { return data_.size(); }
  const std::vector<double>& packed() const { return data_; }
  std::vector<double>& packed() { return data_; }

  static SymMatrix from_packed(std::size_t n, std::vector<double> packed) {
    SymMatrix m;
    m.n_ = n;
    MM_ASSERT_MSG(packed.size() == n * (n + 1) / 2, "packed size mismatch");
    m.data_ = std::move(packed);
    return m;
  }

  // Max |a(i,j) - b(i,j)|, for tests.
  static double max_abs_diff(const SymMatrix& a, const SymMatrix& b) {
    MM_ASSERT(a.n_ == b.n_);
    double worst = 0.0;
    for (std::size_t k = 0; k < a.data_.size(); ++k) {
      const double d = a.data_[k] > b.data_[k] ? a.data_[k] - b.data_[k]
                                               : b.data_[k] - a.data_[k];
      if (d > worst) worst = d;
    }
    return worst;
  }

 private:
  std::size_t index(std::size_t i, std::size_t j) const {
    MM_ASSERT(i < n_ && j < n_);
    if (i > j) std::swap(i, j);
    // Row-major upper triangle: row i starts at i*n - i(i-1)/2 - ... use
    // standard formula: idx = i*(2n - i - 1)/2 + j.
    return i * (2 * n_ - i - 1) / 2 + j;
  }

  std::size_t n_ = 0;
  std::vector<double> data_;
};

// Flat list of the n(n-1)/2 unordered pairs (i < j), in the canonical order
// that the correlation group node splits into blocks (block_begin).
struct PairIndex {
  std::uint32_t i;
  std::uint32_t j;
};

inline std::vector<PairIndex> all_pairs(std::size_t n) {
  std::vector<PairIndex> out;
  out.reserve(n * (n - 1) / 2);
  for (std::uint32_t i = 0; i < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) out.push_back({i, j});
  return out;
}

// Canonical slot of the unordered pair (i < j) in all_pairs(n) order —
// row-major upper triangle without the diagonal. O(1); lets engines keep
// per-pair state in a flat array without materializing the pair list.
inline std::size_t pair_slot(std::size_t n, std::size_t i, std::size_t j) {
  MM_ASSERT(i < j && j < n);
  return i * (2 * n - i - 1) / 2 + (j - i - 1);
}

// Pair sharding: `count` pairs cut into `members` contiguous blocks balanced
// to within one pair (the first count % members blocks take one extra).
// Block b is [block_begin(count, members, b), block_begin(count, members,
// b + 1)); block_begin(count, members, members) == count.
inline std::size_t block_begin(std::size_t count, std::size_t members, std::size_t b) {
  MM_ASSERT(members > 0 && b <= members);
  return b * (count / members) + std::min(b, count % members);
}

}  // namespace mm::stats
