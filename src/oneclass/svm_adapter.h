// The adapter exposing the SVM substrate's OC-SVM and SVDD (one
// svm::SvmModel) through the common OneClassModel interface, plus a factory
// used by the alternative-models ablation benchmark.
#pragma once

#include <optional>

#include "oneclass/autoencoder.h"
#include "oneclass/model.h"
#include "svm/svm_model.h"

namespace wtp::oneclass {

class SvmAdapter final : public OneClassModel {
 public:
  explicit SvmAdapter(svm::SvmKind kind, svm::SvmConfig config = {})
      : kind_{kind}, config_{std::move(config)} {}

  /// Targets a training outlier fraction nu: OC-SVM's nu itself; for SVDD
  /// the paper's relation C = 1/(nu*l), resolved at fit time when l is
  /// known.  Throws std::invalid_argument for nu outside (0, 1].
  [[nodiscard]] static SvmAdapter with_nu(svm::SvmKind kind, double nu,
                                          svm::KernelParams kernel = {});

  void fit(const util::FeatureMatrix& data, std::size_t dimension) override;
  /// svm::SvmModel::decision_values, in the exact tier.
  void decision_values(const util::FeatureMatrix& windows,
                       std::span<double> out) const override;
  [[nodiscard]] std::string name() const override {
    return std::string{svm::to_string(kind_)};
  }

  [[nodiscard]] const svm::SvmModel& model() const;
  /// SMO instrumentation of the last fit (iterations, shrink events, cache
  /// traffic); throws std::logic_error before fit.
  [[nodiscard]] const svm::SolverStats& solver_stats() const {
    return model().solver_stats();
  }

 private:
  svm::SvmKind kind_;
  svm::SvmConfig config_;
  std::optional<double> nu_coupling_;  ///< SVDD's C = 1/(nu*l), set by with_nu
  std::optional<svm::SvmModel> model_;
};

/// Known model families for the factory.  The two SVM kinds carry their
/// svm::SvmKind values.
enum class ModelKind : std::uint8_t {
  kOcSvm = static_cast<std::uint8_t>(svm::SvmKind::kOcSvm),
  kSvdd = static_cast<std::uint8_t>(svm::SvmKind::kSvdd),
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
