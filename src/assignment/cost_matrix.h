// Dense row-major cost matrix for bipartite assignment.
#ifndef LAKEFUZZ_ASSIGNMENT_COST_MATRIX_H_
#define LAKEFUZZ_ASSIGNMENT_COST_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace lakefuzz {

/// Cost of pairing row i with column j. `kForbidden` marks pairs that must
/// never be assigned (used to encode sparse candidate sets in a dense
/// solver).
class CostMatrix {
 public:
  static constexpr double kForbidden = std::numeric_limits<double>::infinity();

  CostMatrix() = default;
  CostMatrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  void set(size_t r, size_t c, double v) {
    assert(r < rows_ && c < cols_);
    data_[r * cols_ + c] = v;
  }
  /// Row r's cols() cells; the rows that follow are contiguous after it.
  double* row(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  bool forbidden(size_t r, size_t c) const {
    return at(r, c) == kForbidden;
  }

  /// Largest finite cost, or 0 when all entries are forbidden/empty.
  double MaxFinite() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// One solved assignment: row → column pairs with their costs.
struct Assignment {
  /// pairs[k] = {row, col}; at most min(rows, cols) entries; rows/cols not
  /// listed are unassigned.
  std::vector<std::pair<size_t, size_t>> pairs;
  /// Sum of the matched pairs' costs.
  double total_cost = 0.0;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_ASSIGNMENT_COST_MATRIX_H_
