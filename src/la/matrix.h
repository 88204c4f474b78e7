// Small dense linear algebra used by the state space machinery.
//
// State dimensions here are tiny (<= ~16: level + 11 seasonal states +
// intervention coefficient, or an ARMA companion block), so a simple
// row-major dense matrix with O(n^3) kernels is the right tool; no
// external BLAS dependency.

#ifndef MICTREND_LA_MATRIX_H_
#define MICTREND_LA_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/result.h"

namespace mic::la {

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t size, double fill = 0.0)
      : data_(size, fill) {}
  Vector(std::initializer_list<double> values) : data_(values) {}
  explicit Vector(std::vector<double> values) : data_(std::move(values)) {}

  std::size_t size() const { return data_.size(); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scale);

  /// Resets to `size` zeros, reusing the existing allocation when it is
  /// large enough (workspace reuse in the Kalman hot loop).
  void Resize(std::size_t size) { data_.assign(size, 0.0); }

  /// Euclidean norm.
  double Norm() const;

  /// Sum of elements.
  double Sum() const;

  std::string ToString() const;

 private:
  std::vector<double> data_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double scale, Vector vec);

/// Dot product; requires equal sizes.
double Dot(const Vector& a, const Vector& b);

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const Vector& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scale);

  /// Resets to rows x cols zeros, reusing the existing allocation when
  /// it is large enough (workspace reuse in the Kalman hot loop).
  void Resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  Matrix Transpose() const;

  /// Row `r` as a vector.
  Vector Row(std::size_t r) const;

  /// Symmetrizes in place: A <- (A + A') / 2. Used to keep covariance
  /// matrices symmetric under floating-point drift.
  void Symmetrize();

  /// Max |a_ij|.
  double MaxAbs() const;

  std::string ToString() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(double scale, Matrix m);
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& m, const Vector& v);

/// Allocation-free kernels for preallocated outputs: each computes into
/// `*out` (resized as needed, reusing its buffer) with exactly the same
/// floating-point accumulation order as the operator form, so switching
/// a call site between the two never changes a bit of the result. The
/// output must not alias an input.
void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out);
void MultiplyInto(const Matrix& m, const Vector& v, Vector* out);
void TransposeInto(const Matrix& a, Matrix* out);

/// a * b' (outer product).
Matrix Outer(const Vector& a, const Vector& b);

/// Quadratic form z' M z.
double QuadraticForm(const Vector& z, const Matrix& m);

/// Cholesky factor L (lower triangular, A = L L') of a symmetric positive
/// definite matrix; fails with NumericError if A is not SPD.
Result<Matrix> Cholesky(const Matrix& a);

/// Solves A x = b for symmetric positive definite A via Cholesky.
Result<Vector> CholeskySolve(const Matrix& a, const Vector& b);

/// Solves A X = B with partial-pivoting LU; A must be square.
Result<Matrix> Solve(const Matrix& a, const Matrix& b);

/// Matrix inverse via LU; fails on singular input.
Result<Matrix> Inverse(const Matrix& a);

/// log(det(A)) for symmetric positive definite A.
Result<double> LogDet(const Matrix& a);

}  // namespace mic::la

#endif  // MICTREND_LA_MATRIX_H_
