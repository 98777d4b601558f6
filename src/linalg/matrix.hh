/**
 * @file
 * Dense matrix and vector operations.
 *
 * The REF mechanisms operate on small problems (N agents x R
 * resources, both two-digit at most), so a straightforward row-major
 * dense matrix is the right tool: no sparsity, no blocking, no
 * expression templates.
 */

#ifndef REF_LINALG_MATRIX_HH
#define REF_LINALG_MATRIX_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace ref::linalg {

/** Column vector, stored as a plain std::vector<double>. */
using Vector = std::vector<double>;

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    /** Empty 0x0 matrix. */
    Matrix() = default;

    Matrix(const Matrix &) = default;
    Matrix &operator=(const Matrix &) = default;

    /** Moves leave the source an empty 0x0 matrix, so its shape
     *  never outlives its storage. */
    Matrix(Matrix &&other) noexcept
        : rows_(std::exchange(other.rows_, 0)),
          cols_(std::exchange(other.cols_, 0)),
          data_(std::move(other.data_))
    {}

    Matrix &operator=(Matrix &&other) noexcept
    {
        if (this != &other) {
            rows_ = std::exchange(other.rows_, 0);
            cols_ = std::exchange(other.cols_, 0);
            data_ = std::move(other.data_);
            other.data_.clear();
        }
        return *this;
    }

    /** rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols);

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill);

    /** Build from nested initializer data; rows must be equal length. */
    static Matrix fromRows(
        const std::vector<std::vector<double>> &rows);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Element (r, c); bounds-checked (PanicError when outside). */
    double &operator()(std::size_t r, std::size_t c)
    {
        if (r >= rows_ || c >= cols_) [[unlikely]]
            outOfRange(r, c);
        return data_[r * cols_ + c];
    }

    double operator()(std::size_t r, std::size_t c) const
    {
        if (r >= rows_ || c >= cols_) [[unlikely]]
            outOfRange(r, c);
        return data_[r * cols_ + c];
    }

    /** Matrix transpose. */
    Matrix transposed() const;

    /** Matrix-matrix product. @pre cols() == other.rows(). */
    Matrix operator*(const Matrix &other) const;

    /** Matrix-vector product. @pre cols() == v.size(). */
    Vector operator*(const Vector &v) const;

    /** Element-wise sum. @pre same shape. */
    Matrix operator+(const Matrix &other) const;

    /** Element-wise difference. @pre same shape. */
    Matrix operator-(const Matrix &other) const;

    /** Scale every element. */
    Matrix scaled(double factor) const;

    /** Extract one row as a vector. */
    Vector row(std::size_t r) const;

    /** Extract one column as a vector. */
    Vector column(std::size_t c) const;

    /** Maximum absolute element; 0 for an empty matrix. */
    double maxAbs() const;

  private:
    /** The failed bounds check, kept out of the inlined accessors. */
    [[noreturn, gnu::cold]] void outOfRange(std::size_t r,
                                            std::size_t c) const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product. @pre equal sizes. */
double dot(const Vector &a, const Vector &b);

/** Euclidean norm. */
double norm2(const Vector &v);

/** Infinity norm (max absolute entry); 0 for empty. */
double normInf(const Vector &v);

/** a + b element-wise. @pre equal sizes. */
Vector add(const Vector &a, const Vector &b);

/** a - b element-wise. @pre equal sizes. */
Vector subtract(const Vector &a, const Vector &b);

/** v scaled by factor. */
Vector scale(const Vector &v, double factor);

/** a + factor * b, the classic axpy. @pre equal sizes. */
Vector axpy(const Vector &a, double factor, const Vector &b);

} // namespace ref::linalg

#endif // REF_LINALG_MATRIX_HH
