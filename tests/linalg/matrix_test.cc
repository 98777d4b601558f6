#include "linalg/matrix.hh"

#include <gtest/gtest.h>

#include "util/logging.hh"

namespace {

using ref::linalg::Matrix;
using ref::linalg::Vector;

TEST(Matrix, ZeroInitialized)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(m(r, c), 0.0);
}

TEST(Matrix, FillConstructor)
{
    Matrix m(2, 2, 7.5);
    EXPECT_DOUBLE_EQ(m(1, 1), 7.5);
}

TEST(Matrix, FromRowsBuildsAndValidates)
{
    const Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    EXPECT_DOUBLE_EQ(m(0, 1), 2);
    EXPECT_DOUBLE_EQ(m(1, 0), 3);
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {3}}), ref::FatalError);
    EXPECT_THROW(Matrix::fromRows({}), ref::FatalError);
}

TEST(Matrix, MovesLeaveTheSourceEmpty)
{
    Matrix source = Matrix::fromRows({{1, 2}, {3, 4}, {5, 6}});
    const Matrix moved(std::move(source));
    EXPECT_EQ(moved.rows(), 3u);
    EXPECT_DOUBLE_EQ(moved(2, 1), 6);
    EXPECT_EQ(source.rows(), 0u);
    EXPECT_EQ(source.cols(), 0u);
    EXPECT_DOUBLE_EQ(source.maxAbs(), 0.0);

    Matrix target(1, 1, 9.0);
    Matrix again = Matrix::fromRows({{7, 8}});
    target = std::move(again);
    EXPECT_EQ(target.rows(), 1u);
    EXPECT_EQ(target.cols(), 2u);
    EXPECT_DOUBLE_EQ(target(0, 1), 8);
    EXPECT_EQ(again.rows(), 0u);
    EXPECT_EQ(again.cols(), 0u);
    EXPECT_EQ(again.transposed().rows(), 0u);
}

TEST(Matrix, IdentityActsAsMultiplicativeUnit)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix i = Matrix::identity(2);
    const Matrix prod = a * i;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
}

TEST(Matrix, TransposeSwapsShape)
{
    const Matrix a = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6);
}

TEST(Matrix, ProductMatchesHandComputation)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::fromRows({{5, 6}, {7, 8}});
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(0, 1), 22);
    EXPECT_DOUBLE_EQ(c(1, 0), 43);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, ProductRejectsShapeMismatch)
{
    const Matrix a(2, 3);
    const Matrix b(2, 3);
    EXPECT_THROW(a * b, ref::FatalError);
}

TEST(Matrix, MatrixVectorProduct)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Vector v = a * Vector{1.0, 1.0};
    EXPECT_DOUBLE_EQ(v[0], 3);
    EXPECT_DOUBLE_EQ(v[1], 7);
}

TEST(Matrix, SumAndDifference)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::fromRows({{4, 3}, {2, 1}});
    const Matrix s = a + b;
    const Matrix d = a - b;
    EXPECT_DOUBLE_EQ(s(0, 0), 5);
    EXPECT_DOUBLE_EQ(s(1, 1), 5);
    EXPECT_DOUBLE_EQ(d(0, 0), -3);
    EXPECT_DOUBLE_EQ(d(1, 1), 3);
}

TEST(Matrix, ScaledMultipliesEveryElement)
{
    const Matrix a = Matrix::fromRows({{1, -2}});
    const Matrix s = a.scaled(-2.0);
    EXPECT_DOUBLE_EQ(s(0, 0), -2);
    EXPECT_DOUBLE_EQ(s(0, 1), 4);
}

TEST(Matrix, RowAndColumnExtraction)
{
    const Matrix a = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    EXPECT_EQ(a.row(1), (Vector{4, 5, 6}));
    EXPECT_EQ(a.column(2), (Vector{3, 6}));
    EXPECT_THROW(a.row(2), ref::FatalError);
    EXPECT_THROW(a.column(3), ref::FatalError);
}

TEST(Matrix, MaxAbsFindsPeak)
{
    const Matrix a = Matrix::fromRows({{1, -9}, {3, 4}});
    EXPECT_DOUBLE_EQ(a.maxAbs(), 9);
    EXPECT_DOUBLE_EQ(Matrix().maxAbs(), 0);
}

TEST(VectorOps, DotNormAddSubtractScaleAxpy)
{
    const Vector a{3.0, 4.0};
    const Vector b{1.0, 2.0};
    EXPECT_DOUBLE_EQ(ref::linalg::dot(a, b), 11.0);
    EXPECT_DOUBLE_EQ(ref::linalg::norm2(a), 5.0);
    EXPECT_DOUBLE_EQ(ref::linalg::normInf(Vector{-7.0, 2.0}), 7.0);
    EXPECT_EQ(ref::linalg::add(a, b), (Vector{4.0, 6.0}));
    EXPECT_EQ(ref::linalg::subtract(a, b), (Vector{2.0, 2.0}));
    EXPECT_EQ(ref::linalg::scale(a, 2.0), (Vector{6.0, 8.0}));
    EXPECT_EQ(ref::linalg::axpy(a, 2.0, b), (Vector{5.0, 8.0}));
}

TEST(VectorOps, RejectSizeMismatch)
{
    const Vector a{1.0};
    const Vector b{1.0, 2.0};
    EXPECT_THROW(ref::linalg::dot(a, b), ref::FatalError);
    EXPECT_THROW(ref::linalg::add(a, b), ref::FatalError);
    EXPECT_THROW(ref::linalg::axpy(a, 1.0, b), ref::FatalError);
}

} // namespace
