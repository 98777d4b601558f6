#include "matrix.hh"

#include <cmath>

#include "util/logging.hh"

namespace ref::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    REF_REQUIRE(!rows.empty(), "fromRows needs at least one row");
    const std::size_t cols = rows.front().size();
    Matrix m(rows.size(), cols);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        REF_REQUIRE(rows[r].size() == cols,
                    "row " << r << " has " << rows[r].size()
                           << " columns, expected " << cols);
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rows[r][c];
    }
    return m;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

void
Matrix::outOfRange(std::size_t r, std::size_t c) const
{
    REF_PANIC("assertion 'r < rows_ && c < cols_' failed: index ("
              << r << "," << c << ") outside " << rows_ << "x"
              << cols_);
}

Matrix
Matrix::transposed() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            t(c, r) = (*this)(r, c);
    return t;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    REF_REQUIRE(cols_ == other.rows_,
                "product shape mismatch: " << rows_ << "x" << cols_
                    << " times " << other.rows_ << "x" << other.cols_);
    Matrix result(rows_, other.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double lhs = (*this)(r, k);
            if (lhs == 0.0)
                continue;
            for (std::size_t c = 0; c < other.cols_; ++c)
                result(r, c) += lhs * other(k, c);
        }
    }
    return result;
}

Vector
Matrix::operator*(const Vector &v) const
{
    REF_REQUIRE(cols_ == v.size(),
                "matrix-vector shape mismatch: " << rows_ << "x" << cols_
                    << " times " << v.size());
    Vector result(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            result[r] += (*this)(r, c) * v[c];
    return result;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    REF_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "sum shape mismatch");
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] + other.data_[i];
    return result;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    REF_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                "difference shape mismatch");
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] - other.data_[i];
    return result;
}

Matrix
Matrix::scaled(double factor) const
{
    Matrix result(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        result.data_[i] = data_[i] * factor;
    return result;
}

Vector
Matrix::row(std::size_t r) const
{
    REF_REQUIRE(r < rows_, "row " << r << " outside " << rows_);
    Vector result(cols_);
    for (std::size_t c = 0; c < cols_; ++c)
        result[c] = (*this)(r, c);
    return result;
}

Vector
Matrix::column(std::size_t c) const
{
    REF_REQUIRE(c < cols_, "column " << c << " outside " << cols_);
    Vector result(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        result[r] = (*this)(r, c);
    return result;
}

double
Matrix::maxAbs() const
{
    double result = 0;
    for (double value : data_)
        result = std::max(result, std::abs(value));
    return result;
}

double
dot(const Vector &a, const Vector &b)
{
    REF_REQUIRE(a.size() == b.size(), "dot of unequal sizes");
    double result = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        result += a[i] * b[i];
    return result;
}

double
norm2(const Vector &v)
{
    return std::sqrt(dot(v, v));
}

double
normInf(const Vector &v)
{
    double result = 0;
    for (double value : v)
        result = std::max(result, std::abs(value));
    return result;
}

Vector
add(const Vector &a, const Vector &b)
{
    REF_REQUIRE(a.size() == b.size(), "add of unequal sizes");
    Vector result(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        result[i] = a[i] + b[i];
    return result;
}

Vector
subtract(const Vector &a, const Vector &b)
{
    REF_REQUIRE(a.size() == b.size(), "subtract of unequal sizes");
    Vector result(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        result[i] = a[i] - b[i];
    return result;
}

Vector
scale(const Vector &v, double factor)
{
    Vector result(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        result[i] = v[i] * factor;
    return result;
}

Vector
axpy(const Vector &a, double factor, const Vector &b)
{
    REF_REQUIRE(a.size() == b.size(), "axpy of unequal sizes");
    Vector result(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        result[i] = a[i] + factor * b[i];
    return result;
}

} // namespace ref::linalg
