// The profile store as the tools use it: write_mapped_store on a trained
// core::ProfileStore, read_mapped_store back.  Window, schema, params and
// decisions must survive bit for bit, for both classifiers and all four
// kernels; every malformed file is a std::runtime_error naming its path.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/profile_store.h"
#include "core/profile_test_util.h"
#include "core/test_trace.h"
#include "index/mapped_store.h"
#include "index/store_format.h"

namespace wtp::core {
namespace {

const features::WindowConfig kWindow{60, 30};

ProfileStore make_store() {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  std::vector<UserProfile> profiles;
  for (const auto& user : dataset.user_ids()) {
    ProfileParams params;
    params.type = user.size() % 2 ? ClassifierType::kOcSvm : ClassifierType::kSvdd;
    params.kernel = {svm::KernelType::kRbf, 0.0, 0.0, 3};
    params.regularizer = 0.1;
    profiles.push_back(UserProfile::train(user,
                                          *dataset.train_matrix(user, kWindow),
                                          dataset.schema().dimension(), params));
  }
  return ProfileStore{kWindow, dataset.schema(), std::move(profiles)};
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// User id, classifier, regularizer, kernel and every decision on the
/// user's held-out windows, compared exactly.
void expect_same_profile(const UserProfile& loaded, const UserProfile& original) {
  EXPECT_EQ(loaded.user_id(), original.user_id());
  EXPECT_EQ(loaded.params().type, original.params().type);
  EXPECT_EQ(loaded.params().regularizer, original.params().regularizer);
  EXPECT_EQ(loaded.params().kernel, original.model().kernel());
  const ProfilingDataset& dataset = testing::tiny_dataset();
  for (const auto& w :
       testing::rows_of(*dataset.test_matrix(dataset.user_ids().front(), kWindow))) {
    ASSERT_EQ(testing::decide(loaded, w), testing::decide(original, w));
  }
}

void expect_runtime_error_naming(const std::string& path) {
  try {
    (void)index::read_mapped_store(path);
    FAIL() << "malformed store accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos)
        << "error does not name the file: " << e.what();
  }
}

TEST(ProfileStore, RoundTripPreservesEverything) {
  const ProfileStore store = make_store();
  const std::string path = temp_path("round_trip_store.wtpstore");
  index::write_mapped_store(store, path);
  const ProfileStore loaded = index::read_mapped_store(path);

  EXPECT_EQ(loaded.window(), store.window());
  EXPECT_EQ(loaded.schema().categories(), store.schema().categories());
  EXPECT_EQ(loaded.schema().super_types(), store.schema().super_types());
  EXPECT_EQ(loaded.schema().sub_types(), store.schema().sub_types());
  EXPECT_EQ(loaded.schema().application_types(),
            store.schema().application_types());
  EXPECT_EQ(loaded.schema().dimension(), store.schema().dimension());
  ASSERT_EQ(loaded.user_ids(), store.user_ids());
  for (std::size_t i = 0; i < store.profiles().size(); ++i) {
    expect_same_profile(loaded.profiles()[i], store.profiles()[i]);
  }
}

TEST(ProfileStore, FileRoundTrip) {
  const ProfileStore store = make_store();
  const std::string path = temp_path("wtp_profile_store_test.wtpstore");
  index::write_mapped_store(store, path);
  const ProfileStore loaded = index::read_mapped_store(path);
  EXPECT_EQ(loaded.profiles().size(), store.profiles().size());
  expect_runtime_error_naming(path + ".missing");
}

TEST(ProfileStore, EmptyStoreRoundTrips) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string path = temp_path("empty_store.wtpstore");
  index::write_mapped_store(ProfileStore{kWindow, dataset.schema(), {}}, path);
  const ProfileStore loaded = index::read_mapped_store(path);
  EXPECT_TRUE(loaded.profiles().empty());
  EXPECT_EQ(loaded.window(), kWindow);
  EXPECT_EQ(loaded.schema().dimension(), dataset.schema().dimension());
}

TEST(ProfileStore, UserIdWithSpaceRoundTrips) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const ProfileStore base = make_store();
  const UserProfile& first = base.profiles().front();
  std::vector<UserProfile> profiles{
      UserProfile::from_model("user one", first.params(), first.model())};
  const std::string path = temp_path("spaced_user.wtpstore");
  index::write_mapped_store(
      ProfileStore{kWindow, dataset.schema(), std::move(profiles)}, path);
  const ProfileStore loaded = index::read_mapped_store(path);
  ASSERT_NE(loaded.find("user one"), nullptr);
  EXPECT_EQ(loaded.user_ids(), std::vector<std::string>{"user one"});
  for (const auto& w :
       testing::rows_of(*dataset.test_matrix(dataset.user_ids().front(), kWindow))) {
    ASSERT_EQ(testing::decide(*loaded.find("user one"), w), testing::decide(first, w));
  }
}

TEST(ProfileStore, RejectsMalformedInput) {
  // A file in the retired text format, then truncations of a valid store.
  const std::string text = temp_path("text_format_store.wtp");
  {
    std::ofstream out{text};
    out << "wtp_profile_store v1\nwindow 60 30\n";
  }
  expect_runtime_error_naming(text);

  const std::string path = temp_path("truncated_store.wtpstore");
  index::write_mapped_store(make_store(), path);
  const auto bytes = read_bytes(path);
  for (const std::size_t keep : {bytes.size() / 2, bytes.size() - 8}) {
    write_bytes(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    expect_runtime_error_naming(path);
  }
}

TEST(ProfileStore, LoadFailureNamesOffendingPath) {
  // open() accepts the geometry; the zeroed blob magic of the first user
  // fails when the profile is materialized, and the error names the file.
  const std::string path = temp_path("malformed_blob_store.wtpstore");
  index::write_mapped_store(make_store(), path);
  auto bytes = read_bytes(path);
  index::StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  index::UserRecord record;
  std::memcpy(&record, bytes.data() + header.table_off, sizeof record);
  std::memset(bytes.data() + record.blob_off, 0, 8);
  write_bytes(path, bytes);
  expect_runtime_error_naming(path);
}

TEST(ProfileStore, LoadRejectsInvalidWindowAndNamesPath) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string path = temp_path("bad_window_store.wtpstore");
  index::write_mapped_store(ProfileStore{kWindow, dataset.schema(), {}}, path);
  auto bytes = read_bytes(path);
  const std::int64_t zero_shift = 0;
  std::memcpy(bytes.data() + offsetof(index::StoreHeader, window_shift),
              &zero_shift, sizeof zero_shift);
  write_bytes(path, bytes);
  try {
    (void)index::read_mapped_store(path);
    FAIL() << "store with shift 0 accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shift"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(ProfileStore, RejectsModelWiderThanSchema) {
  // Scoring expands each query over the model's columns, so a well-formed
  // blob wider than the store's schema is refused.
  const features::FeatureSchema narrow{{"news"}, {"text"}, {"html"}, {"web"}};
  const UserProfile profile = make_store().profiles().front();
  ASSERT_GT(profile.model().support_vectors().cols(), narrow.dimension());
  const std::string path = temp_path("wide_model_store.wtpstore");
  index::write_mapped_store(ProfileStore{kWindow, narrow, {profile}}, path);
  expect_runtime_error_naming(path);
}

class ProfileRoundTripTest : public ::testing::TestWithParam<ClassifierType> {};

TEST_P(ProfileRoundTripTest, SaveLoadPreservesDecisions) {
  const ProfilingDataset& dataset = testing::tiny_dataset();
  const std::string user = dataset.user_ids().front();
  const auto windows = dataset.train_matrix(user, kWindow);
  // Explicit parameters, so the polynomial's gamma, coef0 and degree are
  // checked as written rather than as defaults.
  for (const svm::KernelParams kernel :
       {svm::KernelParams{svm::KernelType::kLinear, 1.0, 0.0, 3},
        svm::KernelParams{svm::KernelType::kPolynomial, 0.125, 1.5, 5},
        svm::KernelParams{svm::KernelType::kRbf, 0.05, 0.0, 3},
        svm::KernelParams{svm::KernelType::kSigmoid, 0.01, -0.2, 3}}) {
    SCOPED_TRACE(svm::describe(kernel));
    const ProfileParams params{GetParam(), kernel,
                               GetParam() == ClassifierType::kOcSvm ? 0.1 : 0.5};
    const UserProfile profile =
        UserProfile::train(user, *windows, dataset.schema().dimension(), params);
    const std::string path = temp_path(
        std::string{"profile_round_trip_"} + std::string{to_string(GetParam())} +
        ".wtpstore");
    index::write_mapped_store(ProfileStore{kWindow, dataset.schema(), {profile}},
                              path);
    const ProfileStore loaded = index::read_mapped_store(path);
    ASSERT_EQ(loaded.profiles().size(), 1u);
    EXPECT_EQ(loaded.profiles().front().params(), params);
    expect_same_profile(loaded.profiles().front(), profile);
  }
}

INSTANTIATE_TEST_SUITE_P(BothClassifiers, ProfileRoundTripTest,
                         ::testing::Values(ClassifierType::kOcSvm,
                                           ClassifierType::kSvdd),
                         [](const ::testing::TestParamInfo<ClassifierType>& info) {
                           return info.param == ClassifierType::kOcSvm ? "OcSvm"
                                                                       : "Svdd";
                         });

}  // namespace
}  // namespace wtp::core
