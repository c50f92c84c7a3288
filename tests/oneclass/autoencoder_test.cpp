#include "oneclass/autoencoder.h"

#include <gtest/gtest.h>

#include "oneclass/oneclass_test_util.h"
#include "util/rng.h"

namespace wtp::oneclass {
namespace {

using testing::accepted;
using testing::decide;

constexpr std::size_t kDim = 10;

/// Binary patterns concentrated on the first half of the dimensions, i.e.
/// a structure the autoencoder can compress.
std::vector<util::SparseVector> patterned_data(util::Rng& rng, std::size_t count) {
  std::vector<util::SparseVector> points;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> dense(kDim, 0.0);
    // Two prototype patterns with small noise.
    if (rng.bernoulli(0.5)) {
      dense[0] = dense[1] = dense[2] = 1.0;
    } else {
      dense[2] = dense[3] = dense[4] = 1.0;
    }
    if (rng.bernoulli(0.1)) dense[5] = 1.0;
    points.push_back(util::SparseVector::from_dense(dense));
  }
  return points;
}

TEST(Autoencoder, TrainingReducesLoss) {
  util::Rng rng{1};
  const auto data = patterned_data(rng, 100);

  AutoencoderConfig short_config;
  short_config.epochs = 2;
  AutoencoderModel short_model{short_config};
  short_model.fit(util::FeatureMatrix::from_rows(data), kDim);

  AutoencoderConfig long_config;
  long_config.epochs = 80;
  AutoencoderModel long_model{long_config};
  long_model.fit(util::FeatureMatrix::from_rows(data), kDim);

  EXPECT_LT(long_model.final_loss(), short_model.final_loss());
  EXPECT_LT(long_model.final_loss(), 0.05);
}

TEST(Autoencoder, ReconstructsInliersBetterThanOutliers) {
  util::Rng rng{2};
  const auto data = patterned_data(rng, 150);
  AutoencoderModel model;
  model.fit(util::FeatureMatrix::from_rows(data), kDim);

  // The reconstruction error is the threshold minus the decision value.
  const double inlier_error = model.threshold() - decide(model, data[0]);
  // An anti-pattern: active exactly where the training data never is.
  std::vector<double> anti(kDim, 0.0);
  anti[6] = anti[7] = anti[8] = anti[9] = 1.0;
  const double outlier_error =
      model.threshold() - decide(model, util::SparseVector::from_dense(anti));
  EXPECT_LT(inlier_error, outlier_error);
}

TEST(Autoencoder, IsDeterministicGivenSeed) {
  util::Rng rng{3};
  const auto data = patterned_data(rng, 60);
  AutoencoderConfig config;
  config.seed = 99;
  config.epochs = 10;
  AutoencoderModel a{config};
  AutoencoderModel b{config};
  a.fit(util::FeatureMatrix::from_rows(data), kDim);
  b.fit(util::FeatureMatrix::from_rows(data), kDim);
  EXPECT_DOUBLE_EQ(a.final_loss(), b.final_loss());
  EXPECT_EQ(decide(a, data), decide(b, data));
}

TEST(Autoencoder, ThresholdAcceptsMostTrainingData) {
  util::Rng rng{4};
  const auto data = patterned_data(rng, 120);
  AutoencoderConfig config;
  config.outlier_fraction = 0.15;
  AutoencoderModel model{config};
  model.fit(util::FeatureMatrix::from_rows(data), kDim);
  EXPECT_NEAR(static_cast<double>(accepted(model, data)) / 120.0, 0.85, 0.08);
}

TEST(Autoencoder, RejectsInvalidConfiguration) {
  AutoencoderConfig config;
  config.hidden_units = 0;
  EXPECT_THROW((AutoencoderModel{config}), std::invalid_argument);
  config = {};
  config.outlier_fraction = 1.0;
  EXPECT_THROW((AutoencoderModel{config}), std::invalid_argument);
}

TEST(Autoencoder, RejectsEmptyFitAndZeroDimension) {
  AutoencoderModel model;
  EXPECT_THROW(model.fit(util::FeatureMatrix{}, kDim),
               std::invalid_argument);
  util::Rng rng{5};
  const auto data = patterned_data(rng, 10);
  EXPECT_THROW(model.fit(util::FeatureMatrix::from_rows(data), 0),
               std::invalid_argument);
}

TEST(Autoencoder, ErrorBeforeFitThrows) {
  const AutoencoderModel model;
  EXPECT_THROW((void)decide(model, util::SparseVector{}), std::logic_error);
}

}  // namespace
}  // namespace wtp::oneclass
