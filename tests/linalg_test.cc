// Unit and property tests for src/ml/linalg.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "ml/linalg.h"
#include "util/random.h"

namespace wmp::ml {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
}

TEST(MatrixTest, AppendRowFixesWidth) {
  Matrix m;
  ASSERT_TRUE(m.AppendRow({1, 2, 3}).ok());
  ASSERT_TRUE(m.AppendRow({4, 5, 6}).ok());
  EXPECT_TRUE(m.AppendRow({7}).IsInvalidArgument());
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.RowVec(1), (std::vector<double>{4, 5, 6}));
}

TEST(MatrixTest, FromRowsRejectsRagged) {
  EXPECT_FALSE(Matrix::FromRows({{1, 2}, {3}}).ok());
  auto m = Matrix::FromRows({{1, 2}, {3, 4}});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(1, 0), 3.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(5);
  Matrix m(4, 7);
  for (double& v : m.data()) v = rng.Normal();
  Matrix tt = m.Transposed().Transposed();
  EXPECT_EQ(tt.data(), m.data());
}

TEST(LinalgTest, MatVecKnownValues) {
  auto m = Matrix::FromRows({{1, 2}, {3, 4}}).value();
  auto y = MatVec(m, {1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(LinalgTest, MatTVecMatchesTransposedMatVec) {
  Rng rng(9);
  Matrix m(5, 3);
  for (double& v : m.data()) v = rng.Normal();
  std::vector<double> x{1.0, -2.0, 0.5, 3.0, -1.5};
  auto a = MatTVec(m, x);
  auto b = MatVec(m.Transposed(), x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(LinalgTest, MatMulIdentity) {
  Rng rng(11);
  Matrix m(3, 3);
  for (double& v : m.data()) v = rng.Normal();
  Matrix eye(3, 3);
  for (size_t i = 0; i < 3; ++i) eye.At(i, i) = 1.0;
  Matrix prod = MatMul(m, eye);
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_NEAR(prod.data()[i], m.data()[i], 1e-12);
  }
}

TEST(LinalgTest, MatMulKnownValues) {
  auto a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}}).value();
  auto b = Matrix::FromRows({{7, 8}, {9, 10}, {11, 12}}).value();
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154.0);
}

TEST(LinalgTest, GramMatchesExplicitProduct) {
  Rng rng(13);
  Matrix m(6, 4);
  for (double& v : m.data()) v = rng.Normal();
  Matrix g = Gram(m);
  Matrix expected = MatMul(m.Transposed(), m);
  ASSERT_EQ(g.rows(), expected.rows());
  for (size_t i = 0; i < g.data().size(); ++i) {
    EXPECT_NEAR(g.data()[i], expected.data()[i], 1e-10);
  }
}

TEST(LinalgTest, DotNormAxpy) {
  std::vector<double> a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 5.0);
  std::vector<double> y{1.0, 1.0};
  Axpy(2.0, a, &y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 9.0);
}

TEST(LinalgTest, SquaredDistance) {
  double a[] = {0.0, 0.0};
  double b[] = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b, 2), 25.0);
}

TEST(LinalgTest, SquaredDistanceKernelNameIsKnown) {
  const std::string kernel = SquaredDistanceKernel();
  EXPECT_TRUE(kernel == "scalar" || kernel == "avx2" || kernel == "neon")
      << kernel;
}

TEST(LinalgTest, SquaredDistanceDispatchBitwiseMatchesScalar) {
  // Whatever kernel the runtime dispatch picked must reproduce the scalar
  // reference bit-for-bit — the SIMD variants keep the scalar's fixed
  // 4-accumulator reduction order and never contract to FMA. Sweep sizes
  // crossing every vector-width boundary and remainder-tail length.
  Rng rng(20260808);
  for (size_t n = 0; n <= 67; ++n) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Normal(0, 1e3);
      b[i] = rng.Normal(0, 1e-3);
    }
    const double got = SquaredDistance(a.data(), b.data(), n);
    const double want = SquaredDistanceScalar(a.data(), b.data(), n);
    EXPECT_EQ(got, want) << "n=" << n << " kernel=" << SquaredDistanceKernel();
  }
  // A large, cache-crossing size as well.
  std::vector<double> a(4099), b(4099);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.UniformDouble(-5, 5);
    b[i] = rng.UniformDouble(-5, 5);
  }
  EXPECT_EQ(SquaredDistance(a.data(), b.data(), a.size()),
            SquaredDistanceScalar(a.data(), b.data(), a.size()));
}

// ---------- NearestCentroids edge cases ----------

constexpr size_t kPrefixRows = 9;  // n = 0..9 runs every 4-row remainder

// Naive per-row scan: the lowest centroid index attaining the minimum
// distance, the argmin NearestCentroids must reproduce label for label.
std::vector<int> NaiveNearest(const std::vector<double>& rows, size_t n,
                              const Matrix& centroids) {
  const size_t d = centroids.cols();
  std::vector<int> labels(n, 0);
  for (size_t r = 0; r < n; ++r) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < centroids.rows(); ++c) {
      const double dist =
          SquaredDistanceScalar(&rows[r * d], centroids.RowPtr(c), d);
      if (dist < best) {
        best = dist;
        labels[r] = static_cast<int>(c);
      }
    }
  }
  return labels;
}

// Runs NearestCentroids on every prefix n = 0..9 of `rows` and checks it
// against the naive scan; labels past n must stay untouched.
void ExpectNaiveLabelsForEveryPrefix(const std::vector<double>& rows,
                                     const Matrix& centroids) {
  ASSERT_EQ(rows.size(), kPrefixRows * centroids.cols());
  for (size_t n = 0; n <= kPrefixRows; ++n) {
    std::vector<int> got(kPrefixRows, -1);
    NearestCentroids(rows.data(), n, centroids, got.data());
    std::vector<int> want = NaiveNearest(rows, n, centroids);
    want.resize(kPrefixRows, -1);
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

std::vector<int> AllLabels(const std::vector<double>& rows,
                           const Matrix& centroids) {
  std::vector<int> labels(kPrefixRows, -1);
  NearestCentroids(rows.data(), kPrefixRows, centroids, labels.data());
  return labels;
}

TEST(NearestCentroidsTest, TiesResolveToLowestIndex) {
  // Centroids at +-e1 and +-e2; a row at the origin ties all four.
  const size_t d = 4;
  Matrix centroids(4, d);
  centroids.At(0, 0) = 1;
  centroids.At(1, 0) = -1;
  centroids.At(2, 1) = 1;
  centroids.At(3, 1) = -1;
  std::vector<double> rows(kPrefixRows * d, 0.0);
  rows[3 * d + 1] = -0.5;  // row 3 leans to centroid 3, then ties resume
  ExpectNaiveLabelsForEveryPrefix(rows, centroids);
  EXPECT_EQ(AllLabels(rows, centroids),
            (std::vector<int>{0, 0, 0, 3, 0, 0, 0, 0, 0}));
}

TEST(NearestCentroidsTest, DuplicateCentroidsKeepIndexOrder) {
  const size_t d = 3, k = 5;
  const double value[k] = {1.0, 2.0, 1.0, 2.0, -7.0};  // 2 = 0, 3 = 1
  Matrix centroids(k, d);
  for (size_t c = 0; c < k; ++c) {
    for (size_t j = 0; j < d; ++j) centroids.At(c, j) = value[c];
  }
  Rng rng(3);
  std::vector<double> rows(kPrefixRows * d);
  for (size_t r = 0; r < kPrefixRows; ++r) {
    const double base = rng.Bernoulli(0.5) ? 1.0 : 2.0;
    for (size_t j = 0; j < d; ++j) {
      rows[r * d + j] = base + rng.UniformDouble(-0.01, 0.01);
    }
  }
  ExpectNaiveLabelsForEveryPrefix(rows, centroids);
  for (int label : AllLabels(rows, centroids)) {
    EXPECT_TRUE(label == 0 || label == 1) << label;
  }
}

TEST(NearestCentroidsTest, RowOnCentroidIsItsOwnTemplate) {
  const size_t d = 8, k = 6;
  Rng rng(11);
  Matrix centroids(k, d);
  for (double& v : centroids.data()) v = rng.UniformDouble(-2.0, 2.0);
  std::vector<double> rows;
  for (size_t r = 0; r < kPrefixRows; ++r) {
    const double* c = centroids.RowPtr(r % k);
    rows.insert(rows.end(), c, c + d);
  }
  ExpectNaiveLabelsForEveryPrefix(rows, centroids);
  const std::vector<int> labels = AllLabels(rows, centroids);
  for (size_t r = 0; r < kPrefixRows; ++r) {
    EXPECT_EQ(labels[r], static_cast<int>(r % k)) << "row " << r;
  }
}

TEST(NearestCentroidsTest, SingleCentroidTakesEveryRow) {
  const size_t d = 5;
  Matrix centroids(1, d);
  for (double& v : centroids.data()) v = 1.0;
  Rng rng(5);
  std::vector<double> rows(kPrefixRows * d);
  for (double& v : rows) v = rng.UniformDouble(-4.0, 4.0);
  ExpectNaiveLabelsForEveryPrefix(rows, centroids);
  EXPECT_EQ(AllLabels(rows, centroids), std::vector<int>(kPrefixRows, 0));
}

TEST(NearestCentroidsTest, RandomShapesMatchNaiveScan) {
  // Widths below, at and past the 4-wide kernel block, with its tails.
  Rng rng(7);
  for (size_t d : {size_t{1}, size_t{3}, size_t{4}, size_t{22}, size_t{30}}) {
    for (size_t k : {size_t{2}, size_t{7}, size_t{40}}) {
      Matrix centroids(k, d);
      for (double& v : centroids.data()) v = rng.UniformDouble(-3.0, 3.0);
      std::vector<double> rows(kPrefixRows * d);
      for (double& v : rows) v = rng.UniformDouble(-3.0, 3.0);
      SCOPED_TRACE(testing::Message() << "d=" << d << " k=" << k);
      ExpectNaiveLabelsForEveryPrefix(rows, centroids);
    }
  }
}

TEST(CholeskyTest, SolvesKnownSystem) {
  // SPD matrix [[4,2],[2,3]], b = [8, 7] -> x = [1.25, 1.5]
  auto a = Matrix::FromRows({{4, 2}, {2, 3}}).value();
  auto chol = CholeskySolver::Factor(a);
  ASSERT_TRUE(chol.ok());
  auto x = chol->Solve({8, 7});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.25, 1e-10);
  EXPECT_NEAR((*x)[1], 1.5, 1e-10);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_TRUE(CholeskySolver::Factor(a).status().IsInvalidArgument());
}

TEST(CholeskyTest, RejectsIndefinite) {
  auto a = Matrix::FromRows({{1, 2}, {2, 1}}).value();  // eigenvalues 3, -1
  EXPECT_TRUE(CholeskySolver::Factor(a).status().IsFailedPrecondition());
}

TEST(CholeskyTest, RejectsWrongRhsSize) {
  auto a = Matrix::FromRows({{2, 0}, {0, 2}}).value();
  auto chol = CholeskySolver::Factor(a).value();
  EXPECT_TRUE(chol.Solve({1, 2, 3}).status().IsInvalidArgument());
}

// Property: for random SPD systems A = B^T B + I, solving returns x with
// A x ~= b, across dimensions.
class CholeskyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyPropertyTest, SolveSatisfiesSystem) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  Matrix b(static_cast<size_t>(n), static_cast<size_t>(n));
  for (double& v : b.data()) v = rng.Normal();
  Matrix a = Gram(b);
  for (int i = 0; i < n; ++i) a.At(static_cast<size_t>(i), static_cast<size_t>(i)) += 1.0;

  std::vector<double> rhs(static_cast<size_t>(n));
  for (double& v : rhs) v = rng.Normal();

  auto chol = CholeskySolver::Factor(a);
  ASSERT_TRUE(chol.ok());
  auto x = chol->Solve(rhs);
  ASSERT_TRUE(x.ok());
  auto ax = MatVec(a, *x);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<size_t>(i)], rhs[static_cast<size_t>(i)], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, CholeskyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

}  // namespace
}  // namespace wmp::ml
