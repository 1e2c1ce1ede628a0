#include "ml/linalg.h"

#include <cassert>
#include <cmath>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace wmp::ml {

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  assert(data_.size() == rows_ * cols_);
}

std::vector<double> Matrix::RowVec(size_t r) const {
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

Status Matrix::AppendRow(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  } else if (row.size() != cols_) {
    return Status::InvalidArgument("row length mismatch in AppendRow");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
  return Status::OK();
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Result<Matrix> Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  Matrix m;
  for (const auto& r : rows) WMP_RETURN_IF_ERROR(m.AppendRow(r));
  return m;
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  assert(x.size() == a.cols());
  std::vector<double> y(a.rows(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    double acc = 0.0;
    for (size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> MatTVec(const Matrix& a, const std::vector<double>& x) {
  assert(x.size() == a.rows());
  std::vector<double> y(a.cols(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order keeps the inner loop streaming over rows of b and c.
  for (size_t i = 0; i < a.rows(); ++i) {
    double* crow = c.RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.At(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Matrix Gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      double* grow = g.RowPtr(i);
      for (size_t j = i; j < a.cols(); ++j) grow[j] += ri * row[j];
    }
  }
  // Mirror the upper triangle.
  for (size_t i = 0; i < g.rows(); ++i) {
    for (size_t j = 0; j < i; ++j) g.At(i, j) = g.At(j, i);
  }
  return g;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const std::vector<double>& v) { return std::sqrt(Dot(v, v)); }

void Axpy(double alpha, const std::vector<double>& x, std::vector<double>* y) {
  assert(x.size() == y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

// Register-blocked: four independent accumulator chains over the dimension
// axis, so the adds interleave in the pipeline (and vectorize cleanly)
// instead of serializing on one `acc += d*d` dependency. The kmeans
// assignment scan — the batch-inference profile's hot spot — spends nearly
// all its time here. The (s0+s1)+(s2+s3)+tail reduction order is fixed and
// shared with NearestCentroids below, which is what keeps batch and scalar
// template assignments bitwise identical.
double SquaredDistanceScalar(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    s0 += d0 * d0;
    const double d1 = a[i + 1] - b[i + 1];
    s1 += d1 * d1;
    const double d2 = a[i + 2] - b[i + 2];
    s2 += d2 * d2;
    const double d3 = a[i + 3] - b[i + 3];
    s3 += d3 * d3;
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}

namespace {

// Vector kernels replicating the scalar chain bit-for-bit: lane j of the
// vector accumulator IS chain s_j (same subtract, multiply, add per block,
// in the same order — deliberately separate mul + add, never an FMA, which
// would round once instead of twice), and the horizontal reduction uses
// the scalar kernel's fixed ((s0+s1)+(s2+s3))+tail order. The kernels are
// compiled with per-function target attributes and only ever called behind
// a runtime CPU check, so the binary still runs on baseline hardware.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WMP_HAVE_AVX2_KERNEL 1
// Cache-line aligned so the 4-wide loop sits in one 32-byte fetch block
// wherever the linker places the function. At the default 16-byte
// alignment the loop can straddle two blocks, which costs the k-means
// elbow sweep about 10%.
__attribute__((target("avx2"), aligned(64))) double SquaredDistanceAvx2(
    const double* a, const double* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double s[4];
  _mm256_storeu_pd(s, acc);
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((s[0] + s[1]) + (s[2] + s[3])) + tail;
}
#endif

#if defined(__aarch64__)
#define WMP_HAVE_NEON_KERNEL 1
double SquaredDistanceNeon(const double* a, const double* b, size_t n) {
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d01 = vsubq_f64(vld1q_f64(a + i), vld1q_f64(b + i));
    const float64x2_t d23 =
        vsubq_f64(vld1q_f64(a + i + 2), vld1q_f64(b + i + 2));
    acc01 = vaddq_f64(acc01, vmulq_f64(d01, d01));
    acc23 = vaddq_f64(acc23, vmulq_f64(d23, d23));
  }
  const double s0 = vgetq_lane_f64(acc01, 0);
  const double s1 = vgetq_lane_f64(acc01, 1);
  const double s2 = vgetq_lane_f64(acc23, 0);
  const double s3 = vgetq_lane_f64(acc23, 1);
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    tail += d * d;
  }
  return ((s0 + s1) + (s2 + s3)) + tail;
}
#endif

using DistanceKernel = double (*)(const double*, const double*, size_t);

struct DistanceDispatch {
  DistanceKernel fn;
  const char* name;
};

DistanceDispatch PickDistanceKernel() {
#if defined(WMP_HAVE_AVX2_KERNEL)
  if (__builtin_cpu_supports("avx2")) return {&SquaredDistanceAvx2, "avx2"};
#endif
#if defined(WMP_HAVE_NEON_KERNEL)
  return {&SquaredDistanceNeon, "neon"};
#endif
  return {&SquaredDistanceScalar, "scalar"};
}

const DistanceDispatch& GetDistanceDispatch() {
  static const DistanceDispatch dispatch = PickDistanceKernel();
  return dispatch;
}

}  // namespace

double SquaredDistance(const double* a, const double* b, size_t n) {
  return GetDistanceDispatch().fn(a, b, n);
}

const char* SquaredDistanceKernel() { return GetDistanceDispatch().name; }

namespace {

// Four rows against every centroid: the centroid row streams through cache
// once per 4-row block, and each (row, centroid) distance runs through
// SquaredDistance itself — same 4-wide kernel, same accumulation order —
// so labels agree bitwise with a naive per-row scan.
void NearestCentroids4(const double* x0, const double* x1, const double* x2,
                       const double* x3, const Matrix& centroids,
                       int* labels) {
  const size_t k = centroids.rows(), d = centroids.cols();
  double b0 = std::numeric_limits<double>::max(), b1 = b0, b2 = b0, b3 = b0;
  int l0 = 0, l1 = 0, l2 = 0, l3 = 0;
  for (size_t c = 0; c < k; ++c) {
    const double* cc = centroids.RowPtr(c);
    const double s0 = SquaredDistance(x0, cc, d);
    const double s1 = SquaredDistance(x1, cc, d);
    const double s2 = SquaredDistance(x2, cc, d);
    const double s3 = SquaredDistance(x3, cc, d);
    const int ci = static_cast<int>(c);
    if (s0 < b0) { b0 = s0; l0 = ci; }
    if (s1 < b1) { b1 = s1; l1 = ci; }
    if (s2 < b2) { b2 = s2; l2 = ci; }
    if (s3 < b3) { b3 = s3; l3 = ci; }
  }
  labels[0] = l0;
  labels[1] = l1;
  labels[2] = l2;
  labels[3] = l3;
}

}  // namespace

void NearestCentroids(const double* rows, size_t n, const Matrix& centroids,
                      int* labels) {
  const size_t k = centroids.rows(), d = centroids.cols();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    NearestCentroids4(rows + i * d, rows + (i + 1) * d, rows + (i + 2) * d,
                      rows + (i + 3) * d, centroids, labels + i);
  }
  for (; i < n; ++i) {
    const double* row = rows + i * d;
    double best = std::numeric_limits<double>::max();
    int best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double dist = SquaredDistance(row, centroids.RowPtr(c), d);
      if (dist < best) {
        best = dist;
        best_c = static_cast<int>(c);
      }
    }
    labels[i] = best_c;
  }
}

Result<CholeskySolver> CholeskySolver::Factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a.At(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l.At(j, k) * l.At(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      return Status::FailedPrecondition("matrix is not positive definite");
    }
    l.At(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double v = a.At(i, j);
      for (size_t k = 0; k < j; ++k) v -= l.At(i, k) * l.At(j, k);
      l.At(i, j) = v / l.At(j, j);
    }
  }
  return CholeskySolver(std::move(l));
}

Result<std::vector<double>> CholeskySolver::Solve(
    const std::vector<double>& b) const {
  const size_t n = l_.rows();
  if (b.size() != n) {
    return Status::InvalidArgument("rhs size mismatch in Cholesky solve");
  }
  // Forward substitution: L z = b.
  std::vector<double> z(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (size_t k = 0; k < i; ++k) v -= l_.At(i, k) * z[k];
    z[i] = v / l_.At(i, i);
  }
  // Backward substitution: L^T x = z.
  std::vector<double> x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double v = z[ii];
    for (size_t k = ii + 1; k < n; ++k) v -= l_.At(k, ii) * x[k];
    x[ii] = v / l_.At(ii, ii);
  }
  return x;
}

}  // namespace wmp::ml
