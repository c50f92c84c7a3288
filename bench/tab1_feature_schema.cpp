// Tab. I reproduction: feature vector composition.
//
// Prints the per-group column counts of (a) the paper-scale schema built
// from the full value pools (exactly 843 columns) and (b) the schema
// actually observed in the generated benchmark trace, as the paper extracts
// it from its dataset.
#include <cstdio>

#include "bench_common.h"
#include "features/schema.h"
#include "synthetic/pools.h"
#include "util/table.h"

using namespace wtp;

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::parse(argc, argv);

  // (a) Pool-defined schema at exactly the paper's vocabulary sizes.
  std::vector<std::string> sub_types;
  for (const auto& media : synthetic::media_type_pool(synthetic::kPaperSubTypeCount)) {
    sub_types.emplace_back(log::split_media_type(media).sub_type);
  }
  const features::FeatureSchema pool_schema{
      synthetic::category_pool(synthetic::kPaperCategoryCount),
      synthetic::media_super_type_pool(), sub_types,
      synthetic::application_type_pool(synthetic::kPaperApplicationTypeCount)};

  // (b) Schema observed in the generated trace (the paper's procedure).
  const auto trace = bench::make_trace(options);
  const features::FeatureSchema observed_schema =
      features::FeatureSchema::from_transactions(trace.transactions);

  util::TextTable table;
  table.set_header({"Feature category", "Paper", "Pool-defined", "Observed"});
  const std::size_t paper_counts[] = {4, 2, 1, 1, 1, 105, 8, 257, 464};
  const auto pool_rows = pool_schema.composition();
  const auto observed_rows = observed_schema.composition();
  for (std::size_t g = 0; g < pool_rows.size(); ++g) {
    table.add_row({pool_rows[g].first, std::to_string(paper_counts[g]),
                   std::to_string(pool_rows[g].second),
                   std::to_string(observed_rows[g].second)});
  }
  table.add_row({"Total", "843", std::to_string(pool_schema.dimension()),
                 std::to_string(observed_schema.dimension())});
  std::printf("%s\n",
              table.render("Tab. I — feature vector composition").c_str());
  return 0;
}
