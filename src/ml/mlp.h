#ifndef WMP_ML_MLP_H_
#define WMP_ML_MLP_H_

/// \file mlp.h
/// Multilayer perceptron regressor — the paper's "DNN" model family.
///
/// Matches the paper's training setup (§III-B3): MSE + L2 loss (eq. 9),
/// choice of identity or ReLU hidden activations, and SGD / Adam / L-BFGS
/// optimizers. The default architecture is the paper's tuned net: six
/// hidden layers of 48, 39, 27, 16, 7, and 5 units.
///
/// Targets are standardized internally during Fit (and de-standardized at
/// prediction time) so one learning-rate default works across datasets whose
/// memory labels differ by orders of magnitude.

#include <vector>

#include "ml/regressor.h"
#include "util/random.h"

namespace wmp::ml {

/// Hidden-layer activation.
enum class Activation { kIdentity, kRelu, kTanh };

/// First-order trainer choice.
enum class MlpSolver { kSgd, kAdam, kLbfgs };

const char* ActivationName(Activation a);
const char* MlpSolverName(MlpSolver s);

/// Hyperparameters for MlpRegressor.
struct MlpOptions {
  /// Paper's tuned architecture (input and scalar output are implicit).
  std::vector<int> hidden_layers = {48, 39, 27, 16, 7, 5};
  Activation activation = Activation::kRelu;
  MlpSolver solver = MlpSolver::kAdam;
  double alpha = 1e-4;          ///< L2 penalty (eq. 9).
  double learning_rate = 1e-3;  ///< SGD/Adam step size.
  double momentum = 0.9;        ///< SGD momentum.
  int batch_size = 64;
  int max_iter = 150;           ///< epochs (SGD/Adam) or L-BFGS iterations.
  double tol = 1e-5;            ///< relative improvement for early stopping.
  int n_iter_no_change = 10;
  uint64_t seed = 42;
};

/// \brief Feed-forward neural network for scalar regression.
class MlpRegressor : public Regressor {
 public:
  explicit MlpRegressor(MlpOptions options = {}) : options_(options) {}

  std::string Name() const override { return "DNN"; }
  Status Fit(const Matrix& x, const std::vector<double>& y) override;
  Result<double> PredictOne(const std::vector<double>& x) const override;
  Result<std::vector<double>> Predict(const Matrix& x) const override;
  Status Serialize(BinaryWriter* writer) const override;

  static Result<std::unique_ptr<MlpRegressor>> Deserialize(BinaryReader* reader);

  /// Training loss (eq. 9) at the end of Fit.
  double final_loss() const { return final_loss_; }
  /// Epochs (or L-BFGS iterations) actually run.
  int iterations_run() const { return iterations_run_; }
  bool fitted() const { return !weights_.empty(); }
  /// Feature-row width the fitted network reads (0 before Fit).
  size_t input_width() const {
    return layer_dims_.empty() ? 0 : layer_dims_.front();
  }

  const MlpOptions& options() const { return options_; }

 private:
  // Layer l maps layer_dims_[l] -> layer_dims_[l+1]:
  //   weights_[l] is (in x out) row-major, biases_[l] has `out` entries.
  std::vector<Matrix> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<size_t> layer_dims_;

  MlpOptions options_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double final_loss_ = 0.0;
  int iterations_run_ = 0;

  void InitParams(size_t input_dim, Rng* rng);
  // Forward pass for a batch; returns activations per layer (including input).
  std::vector<Matrix> Forward(const Matrix& x) const;
  // Computes loss (eq. 9) and gradients for a batch; gradients returned in
  // the same (weights, biases) structure.
  double LossAndGrad(const Matrix& x, const std::vector<double>& y_scaled,
                     std::vector<Matrix>* grad_w,
                     std::vector<std::vector<double>>* grad_b) const;

  // Flat-parameter bridging for the L-BFGS solver.
  std::vector<double> FlattenParams() const;
  void UnflattenParams(const std::vector<double>& flat);
  size_t NumParams() const;

  Status FitFirstOrder(const Matrix& x, const std::vector<double>& y_scaled);
  Status FitLbfgs(const Matrix& x, const std::vector<double>& y_scaled);
};

}  // namespace wmp::ml

#endif  // WMP_ML_MLP_H_
