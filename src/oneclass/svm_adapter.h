// Adapters exposing the SVM substrate's OC-SVM and SVDD through the common
// OneClassModel interface, plus a factory used by the alternative-models
// ablation benchmark.
#pragma once

#include <optional>

#include "oneclass/autoencoder.h"
#include "oneclass/model.h"
#include "svm/one_class_svm.h"
#include "svm/svdd.h"

namespace wtp::oneclass {

class OcSvmAdapter final : public OneClassModel {
 public:
  explicit OcSvmAdapter(svm::OneClassSvmConfig config = {}) : config_{config} {}

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  [[nodiscard]] double decision_value(const util::SparseVector& x) const override;
  [[nodiscard]] std::string name() const override { return "oc-svm"; }

  [[nodiscard]] const svm::OneClassSvmModel& model() const;
  /// SMO instrumentation of the last fit (iterations, shrink events, cache
  /// traffic); throws std::logic_error before fit.
  [[nodiscard]] const svm::SolverStats& solver_stats() const {
    return model().solver_stats();
  }

 private:
  svm::OneClassSvmConfig config_;
  std::optional<svm::OneClassSvmModel> model_;
};

class SvddAdapter final : public OneClassModel {
 public:
  explicit SvddAdapter(svm::SvddConfig config = {}) : config_{config} {}

  /// Couples C to an OC-SVM-style outlier fraction via the paper's relation
  /// C = 1/(nu*l), resolved at fit time when l is known.
  [[nodiscard]] static SvddAdapter with_nu(double nu, svm::KernelParams kernel = {});

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  [[nodiscard]] double decision_value(const util::SparseVector& x) const override;
  [[nodiscard]] std::string name() const override { return "svdd"; }

  [[nodiscard]] const svm::SvddModel& model() const;
  /// SMO instrumentation of the last fit; throws std::logic_error before fit.
  [[nodiscard]] const svm::SolverStats& solver_stats() const {
    return model().solver_stats();
  }

 private:
  svm::SvddConfig config_;
  std::optional<double> nu_coupling_;
  std::optional<svm::SvddModel> model_;
};

/// Known model families for the factory.
enum class ModelKind : std::uint8_t {
  kOcSvm,
  kSvdd,
  kCentroid,
  kGaussian,
  kKde,
  kAutoencoder,
  kIsolationForest,
  kKnn,
};

[[nodiscard]] std::string_view to_string(ModelKind kind) noexcept;

/// Creates a default-configured model with target training outlier fraction
/// nu, mapped to each family's equivalent knob (OC-SVM: nu itself; SVDD:
/// C = 1/(nu*l), resolved at fit time; threshold models: quantile nu).
[[nodiscard]] OneClassModelPtr make_model(ModelKind kind, double nu);

}  // namespace wtp::oneclass
