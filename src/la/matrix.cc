#include "la/matrix.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"

namespace mic::la {

Vector& Vector::operator+=(const Vector& other) {
  MIC_CHECK_EQ(size(), other.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  MIC_CHECK_EQ(size(), other.size());
  for (std::size_t i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double scale) {
  for (auto& value : data_) value *= scale;
  return *this;
}

double Vector::Norm() const {
  double total = 0.0;
  for (double value : data_) total += value * value;
  return std::sqrt(total);
}

double Vector::Sum() const {
  double total = 0.0;
  for (double value : data_) total += value;
  return total;
}

std::string Vector::ToString() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < size(); ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  out << "]";
  return out.str();
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double scale, Vector vec) { return vec *= scale; }

double Dot(const Vector& a, const Vector& b) {
  MIC_CHECK_EQ(a.size(), b.size());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i] * b[i];
  return total;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    MIC_CHECK_EQ(row.size(), cols_) << "ragged initializer";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  MIC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  MIC_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scale) {
  for (auto& value : data_) value *= scale;
  return *this;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Vector Matrix::Row(std::size_t r) const {
  MIC_CHECK_LT(r, rows_);
  Vector out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

void Matrix::Symmetrize() {
  MIC_CHECK_EQ(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double value : data_) best = std::max(best, std::fabs(value));
  return best;
}

std::string Matrix::ToString() const {
  std::ostringstream out;
  for (std::size_t r = 0; r < rows_; ++r) {
    out << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c > 0) out << ", ";
      out << (*this)(r, c);
    }
    out << (r + 1 == rows_ ? "]" : "\n");
  }
  return out.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double scale, Matrix m) { return m *= scale; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  MIC_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double a_rk = a(r, k);
      if (a_rk == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) {
        out(r, c) += a_rk * b(k, c);
      }
    }
  }
  return out;
}

Vector operator*(const Matrix& m, const Vector& v) {
  MIC_CHECK_EQ(m.cols(), v.size());
  Vector out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) total += m(r, c) * v[c];
    out[r] = total;
  }
  return out;
}

void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  MIC_CHECK_EQ(a.cols(), b.rows());
  MIC_CHECK(out != &a && out != &b) << "MultiplyInto output aliases input";
  out->Resize(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double a_rk = a(r, k);
      if (a_rk == 0.0) continue;
      for (std::size_t c = 0; c < b.cols(); ++c) {
        (*out)(r, c) += a_rk * b(k, c);
      }
    }
  }
}

void MultiplyInto(const Matrix& m, const Vector& v, Vector* out) {
  MIC_CHECK_EQ(m.cols(), v.size());
  MIC_CHECK(out != &v) << "MultiplyInto output aliases input";
  out->Resize(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) total += m(r, c) * v[c];
    (*out)[r] = total;
  }
}

void TransposeInto(const Matrix& a, Matrix* out) {
  MIC_CHECK(out != &a) << "TransposeInto output aliases input";
  out->Resize(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) (*out)(c, r) = a(r, c);
  }
}

Matrix Outer(const Vector& a, const Vector& b) {
  Matrix out(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    for (std::size_t c = 0; c < b.size(); ++c) out(r, c) = a[r] * b[c];
  }
  return out;
}

double QuadraticForm(const Vector& z, const Matrix& m) {
  MIC_CHECK(m.rows() == z.size() && m.cols() == z.size());
  double total = 0.0;
  for (std::size_t r = 0; r < z.size(); ++r) {
    for (std::size_t c = 0; c < z.size(); ++c) {
      total += z[r] * m(r, c) * z[c];
    }
  }
  return total;
}

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const std::size_t n = a.rows();
  Matrix chol(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= chol(j, k) * chol(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::NumericError("matrix is not positive definite");
    }
    chol(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= chol(i, k) * chol(j, k);
      chol(i, j) = value / chol(j, j);
    }
  }
  return chol;
}

Result<Vector> CholeskySolve(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("dimension mismatch in CholeskySolve");
  }
  MIC_ASSIGN_OR_RETURN(Matrix chol, Cholesky(a));
  const std::size_t n = b.size();
  // Forward substitution: L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= chol(i, k) * y[k];
    y[i] = value / chol(i, i);
  }
  // Back substitution: L' x = y.
  Vector x(n);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double value = y[i];
    for (std::size_t k = i + 1; k < n; ++k) value -= chol(k, i) * x[k];
    x[i] = value / chol(i, i);
  }
  return x;
}

namespace {

// LU decomposition with partial pivoting. Returns false on singularity.
bool LuDecompose(Matrix& lu, std::vector<std::size_t>& perm, int& sign) {
  const std::size_t n = lu.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  sign = 1;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::fabs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double mag = std::fabs(lu(r, col));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) return false;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu(pivot, c), lu(col, c));
      }
      std::swap(perm[pivot], perm[col]);
      sign = -sign;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      lu(r, col) /= lu(col, col);
      const double factor = lu(r, col);
      for (std::size_t c = col + 1; c < n; ++c) {
        lu(r, c) -= factor * lu(col, c);
      }
    }
  }
  return true;
}

}  // namespace

Result<Matrix> Solve(const Matrix& a, const Matrix& b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Solve requires a square matrix");
  }
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("dimension mismatch in Solve");
  }
  Matrix lu = a;
  std::vector<std::size_t> perm;
  int sign = 0;
  if (!LuDecompose(lu, perm, sign)) {
    return Status::NumericError("singular matrix in Solve");
  }
  const std::size_t n = a.rows();
  Matrix x(n, b.cols());
  for (std::size_t col = 0; col < b.cols(); ++col) {
    // Forward substitution on permuted b.
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double value = b(perm[i], col);
      for (std::size_t k = 0; k < i; ++k) value -= lu(i, k) * y[k];
      y[i] = value;
    }
    // Back substitution.
    for (std::size_t ii = n; ii > 0; --ii) {
      const std::size_t i = ii - 1;
      double value = y[i];
      for (std::size_t k = i + 1; k < n; ++k) value -= lu(i, k) * x(k, col);
      x(i, col) = value / lu(i, i);
    }
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  return Solve(a, Matrix::Identity(a.rows()));
}

Result<double> LogDet(const Matrix& a) {
  MIC_ASSIGN_OR_RETURN(Matrix chol, Cholesky(a));
  double logdet = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    logdet += std::log(chol(i, i));
  }
  return 2.0 * logdet;
}

}  // namespace mic::la
