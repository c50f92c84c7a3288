#include "oneclass/svm_adapter.h"

#include <algorithm>
#include <stdexcept>

#include "oneclass/centroid.h"
#include "oneclass/gaussian.h"
#include "oneclass/isolation_forest.h"
#include "oneclass/kde.h"
#include "oneclass/knn.h"

namespace wtp::oneclass {

SvmAdapter SvmAdapter::with_nu(svm::SvmKind kind, double nu,
                               svm::KernelParams kernel) {
  if (nu <= 0.0 || nu > 1.0) {
    throw std::invalid_argument{"SvmAdapter::with_nu: nu must be in (0, 1]"};
  }
  svm::SvmConfig config;
  config.regularizer = nu;
  config.kernel = kernel;
  SvmAdapter adapter{kind, std::move(config)};
  if (kind == svm::SvmKind::kSvdd) adapter.nu_coupling_ = nu;
  return adapter;
}

void SvmAdapter::fit(const util::FeatureMatrix& data, std::size_t dimension) {
  if (nu_coupling_) {
    const double l = static_cast<double>(std::max<std::size_t>(1, data.rows()));
    config_.regularizer = std::clamp(1.0 / (*nu_coupling_ * l), 1.0 / l, 1.0);
  }
  model_ = svm::SvmModel::train(kind_, data, config_, dimension);
}

void SvmAdapter::decision_values(const util::FeatureMatrix& windows,
                                 std::span<double> out) const {
  check_decision_call(model_.has_value(), windows, out);
  model_->decision_values(windows, out);
}

const svm::SvmModel& SvmAdapter::model() const {
  if (!model_) throw std::logic_error{"SvmAdapter: decision before fit"};
  return *model_;
}

std::string_view to_string(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kOcSvm:
    case ModelKind::kSvdd:
      return svm::to_string(static_cast<svm::SvmKind>(kind));
    case ModelKind::kCentroid: return "centroid";
    case ModelKind::kGaussian: return "gaussian";
    case ModelKind::kKde: return "kde";
    case ModelKind::kAutoencoder: return "autoencoder";
    case ModelKind::kIsolationForest: return "isolation-forest";
    case ModelKind::kKnn: return "knn";
  }
  return "?";
}

OneClassModelPtr make_model(ModelKind kind, double nu) {
  switch (kind) {
    case ModelKind::kOcSvm:
    case ModelKind::kSvdd:
      return std::make_unique<SvmAdapter>(
          SvmAdapter::with_nu(static_cast<svm::SvmKind>(kind), nu));
    case ModelKind::kCentroid:
      return std::make_unique<CentroidModel>(nu);
    case ModelKind::kGaussian:
      return std::make_unique<GaussianModel>(nu);
    case ModelKind::kKde:
      return std::make_unique<KdeModel>(nu);
    case ModelKind::kAutoencoder: {
      AutoencoderConfig config;
      config.outlier_fraction = nu;
      return std::make_unique<AutoencoderModel>(config);
    }
    case ModelKind::kIsolationForest: {
      IsolationForestConfig config;
      config.outlier_fraction = nu;
      return std::make_unique<IsolationForestModel>(config);
    }
    case ModelKind::kKnn:
      return std::make_unique<KnnModel>(5, nu);
  }
  throw std::invalid_argument{"make_model: unknown model kind"};
}

}  // namespace wtp::oneclass
