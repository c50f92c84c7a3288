// Ablation A2: which feature groups carry the discriminative signal?
//
// Re-runs the Tab. IV style evaluation with individual feature groups
// zeroed out of every window vector (category / application type / media
// types / reputation+flags), quantifying each group's contribution to
// ACC = ACC_self - ACC_other.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "core/grid_search.h"
#include "core/metrics.h"
#include "util/strings.h"
#include "util/table.h"

using namespace wtp;

namespace {

/// `windows` with every column of the dropped groups removed.
std::shared_ptr<const util::FeatureMatrix> mask_groups(
    const util::FeatureMatrix& windows, const features::FeatureSchema& schema,
    const std::vector<features::FeatureGroup>& dropped) {
  util::FeatureMatrixBuilder builder;
  for (std::size_t r = 0; r < windows.rows(); ++r) {
    const auto indices = windows.row_indices(r);
    const auto values = windows.row_values(r);
    for (std::size_t k = 0; k < indices.size(); ++k) {
      const auto group = schema.column_group(indices[k]);
      if (std::find(dropped.begin(), dropped.end(), group) == dropped.end()) {
        builder.add(indices[k], values[k]);
      }
    }
    builder.finish_row();
  }
  return std::make_shared<const util::FeatureMatrix>(
      builder.build(schema.dimension()));
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);
  const auto trace = bench::make_trace(options);
  const auto dataset = bench::make_dataset(options, trace);
  const auto& schema = dataset.schema();

  const features::WindowConfig window{60, 30};

  struct Variant {
    std::string name;
    std::vector<features::FeatureGroup> dropped;
  };
  const std::vector<Variant> variants{
      {"full features", {}},
      {"- category", {features::FeatureGroup::kCategory}},
      {"- application type", {features::FeatureGroup::kApplicationType}},
      {"- media types",
       {features::FeatureGroup::kSuperType, features::FeatureGroup::kSubType}},
      {"- reputation/flags",
       {features::FeatureGroup::kReputationRisk,
        features::FeatureGroup::kReputationVerified,
        features::FeatureGroup::kPrivateFlag}},
      {"- action/scheme",
       {features::FeatureGroup::kHttpAction, features::FeatureGroup::kUriScheme}},
      {"content only (category+app+media)",
       {features::FeatureGroup::kHttpAction, features::FeatureGroup::kUriScheme,
        features::FeatureGroup::kReputationRisk,
        features::FeatureGroup::kReputationVerified,
        features::FeatureGroup::kPrivateFlag}},
  };

  core::ProfileParams params;
  params.type = core::ClassifierType::kOcSvm;
  params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
  params.regularizer = 0.1;

  util::TextTable table;
  table.set_header({"variant", "ACCself", "ACCother", "ACC", "delta ACC"});
  double full_acc = 0.0;
  double worst_drop = 0.0;
  std::string worst_variant;
  for (const auto& variant : variants) {
    std::vector<core::UserProfile> profiles;
    core::MatrixByUser masked_test;
    for (const auto& user : dataset.user_ids()) {
      const auto masked_train =
          mask_groups(*dataset.train_matrix(user, window), schema, variant.dropped);
      profiles.push_back(core::UserProfile::train(user, *masked_train,
                                                  schema.dimension(), params));
      masked_test.emplace(user, mask_groups(*dataset.test_matrix(user, window),
                                            schema, variant.dropped));
    }
    const auto ratios = core::mean_acceptance(profiles, masked_test);
    if (variant.name == "full features") full_acc = ratios.acc();
    const double delta = ratios.acc() - full_acc;
    if (delta < worst_drop) {
      worst_drop = delta;
      worst_variant = variant.name;
    }
    table.add_row({variant.name, util::format_double(ratios.acc_self, 1),
                   util::format_double(ratios.acc_other, 1),
                   util::format_double(ratios.acc(), 1),
                   util::format_double(delta, 1)});
  }
  std::printf("%s\n",
              table.render("A2 — feature-group ablation (OC-SVM, rbf, nu=0.1, "
                           "D=60s S=30s)").c_str());
  std::printf("largest single-group degradation: %s (%.1f ACC)\n",
              worst_variant.c_str(), worst_drop);
  return 0;
}
