// Mapped profile store: writer/reader round trip, zero-copy decision
// bit-identity against the heap models the file was written from, and
// rejection of corrupt/truncated/foreign files (every error names the path).
#include "index/mapped_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_test_util.h"
#include "core/profiler.h"
#include "core/test_trace.h"
#include "index/store_format.h"
#include "svm/kernel.h"
#include "svm/model_io.h"
#include "svm/svm_test_util.h"
#include "synthetic/scale.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wtp::index {
namespace {

synthetic::ScalePopulation small_population(std::size_t users = 24) {
  synthetic::ScaleConfig config;
  config.seed = 7;
  config.users = users;
  return synthetic::ScalePopulation{config};
}

core::ProfileParams population_params(const synthetic::ScaleConfig& config) {
  return {core::ClassifierType::kOcSvm, config.kernel, 0.5};
}

std::string write_population(const synthetic::ScalePopulation& population,
                             const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  MappedStoreWriter writer{path, population.window(), population.schema()};
  const core::ProfileParams params = population_params(population.config());
  for (std::size_t u = 0; u < population.size(); ++u) {
    writer.add(population.user_id(u), params, population.make_model(u));
  }
  writer.finish();
  return path;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename Field>
std::vector<char> patched(std::vector<char> bytes, std::size_t offset,
                          Field value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(Field));
  return bytes;
}

TEST(MappedStore, RoundTripPreservesCatalog) {
  const auto population = small_population();
  const std::string path = write_population(population, "round_trip.wtpstore");
  const MappedProfileStore store = MappedProfileStore::open(path);

  ASSERT_EQ(store.size(), population.size());
  EXPECT_EQ(store.schema().dimension(), population.schema().dimension());
  EXPECT_EQ(store.window(), population.window());
  for (std::size_t u = 0; u < store.size(); ++u) {
    EXPECT_EQ(store.user_id(u), population.user_id(u));
    EXPECT_EQ(store.params(u), population_params(population.config()));
  }
  EXPECT_GT(store.mapped_bytes(), sizeof(StoreHeader));
}

TEST(MappedStore, MappedDecisionsBitIdenticalToHeap) {
  const auto population = small_population();
  const std::string path = write_population(population, "bit_identity.wtpstore");
  const MappedProfileStore store = MappedProfileStore::open(path);

  for (std::size_t u = 0; u < store.size(); u += 5) {
    const svm::SvmModel heap_model = population.make_model(u);
    const core::UserProfile materialized = store.materialize_profile(u);
    EXPECT_EQ(materialized.user_id(), population.user_id(u));
    for (std::uint64_t salt = 0; salt < 6; ++salt) {
      const util::SparseVector x = population.sample_window(u, 0xabc0 + salt);
      const double from_heap = svm::testing::decide(heap_model, x);
      ASSERT_EQ(store.model(u).decision_value(
                    svm::KernelQueries::row(x, x.squared_norm())),
                from_heap);
      ASSERT_EQ(core::testing::decide(materialized, x), from_heap);
    }
  }
}

TEST(MappedStore, MaterializedProfileOutlivesStore) {
  const auto population = small_population();
  const std::string path = write_population(population, "outlives.wtpstore");
  std::vector<core::UserProfile> profiles;
  {
    const MappedProfileStore store = MappedProfileStore::open(path);
    for (std::size_t u = 0; u < store.size(); ++u) {
      profiles.push_back(store.materialize_profile(u));
    }
  }
  ASSERT_EQ(std::remove(path.c_str()), 0);

  for (std::size_t u = 0; u < profiles.size(); ++u) {
    const svm::SvmModel heap_model = population.make_model(u);
    const auto& model = profiles[u].model();
    EXPECT_EQ(model.support_vectors(), heap_model.support_vectors());
    EXPECT_EQ(model.coefficients(), heap_model.coefficients());
    EXPECT_EQ(model.scalar0(), heap_model.scalar0());
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const util::SparseVector x = population.sample_window(u, 0xd00d + salt);
      ASSERT_EQ(core::testing::decide(profiles[u], x),
                svm::testing::decide(heap_model, x));
    }
  }
}

TEST(MappedStore, MaterializedProfileBorrowsMapping) {
  const auto population = small_population(6);
  const std::string path = write_population(population, "borrows.wtpstore");
  const MappedProfileStore store = MappedProfileStore::open(path);
  // The first user's name opens the string pool, which lies in the mapping;
  // every blob sits between the header and the pool.
  const auto* pool = reinterpret_cast<const std::byte*>(store.user_id(0).data());
  const auto in_mapping = [&](const void* p) {
    const auto* byte = static_cast<const std::byte*>(p);
    return byte < pool && byte + store.mapped_bytes() > pool;
  };
  for (std::size_t u = 0; u < store.size(); ++u) {
    const core::UserProfile profile = store.materialize_profile(u);
    const util::FeatureMatrix& svs =
        profile.model().support_vectors();
    const svm::KernelMatrix mapped = store.model(u).support_vectors;
    ASSERT_TRUE(mapped.bitset) << "population blobs are bitset-stored (v3)";
    ASSERT_TRUE(svs.bitset_stored());
    // The kernel operand scores the mapped words and norms in place; with
    // the bitset plane off it carries the decoded rows instead.
    const svm::KernelMatrix operand = svm::kernel_matrix(svs);
    if (svm::kernel_dispatch() != nullptr) {
      ASSERT_TRUE(operand.bitset);
      EXPECT_FALSE(operand.has_rows());
      EXPECT_EQ(operand.bitset->words.data(), mapped.bitset->words.data());
      EXPECT_EQ(operand.bitset->numeric_values.data(),
                mapped.bitset->numeric_values.data());
      EXPECT_TRUE(in_mapping(operand.bitset->words.data()));
    }
    EXPECT_EQ(operand.csr.sq_norms.data(), mapped.csr.sq_norms.data());
    EXPECT_TRUE(in_mapping(operand.csr.sq_norms.data()));
    EXPECT_EQ(svs.bitset()->words.data(), mapped.bitset->words.data());
  }
}

/// Materializing a store and scoring every profile adds the coefficients
/// to the heap, and per profile only the profile object and allocator
/// bookkeeping: no copy of the support vectors, as CSR rows or as a bitset.
TEST(MappedStore, MaterializingAndScoringGrowsHeapByCoefficientsOnly) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "heap accounting reads glibc's mallinfo2";
#else
  // A bitset backend: with the plane off (csr), scoring decodes CSR rows
  // by design.
  struct BackendGuard {
    ~BackendGuard() { svm::set_kernel_backend_for_testing(""); }
  } guard;
  svm::set_kernel_backend_for_testing("scalar");
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const auto population = small_population(32);
  const std::string path = write_population(population, "heap.wtpstore");
  const MappedProfileStore store = MappedProfileStore::open(path);
  const util::SparseVector x = population.sample_window(0, 0xfeed);
  // Warms the per-thread scoring scratch, which is not per profile.
  (void)core::testing::decide(store.materialize_profile(0), x);

  const std::size_t before = heap_bytes();
  std::vector<core::UserProfile> profiles;
  profiles.reserve(store.size());
  for (std::size_t u = 0; u < store.size(); ++u) {
    profiles.push_back(store.materialize_profile(u));
  }
  for (const auto& profile : profiles) (void)core::testing::decide(profile, x);
  const std::size_t after = heap_bytes();
  const std::size_t grown = after > before ? after - before : 0;

  std::size_t coefficient_bytes = 0;
  std::size_t word_bytes = 0;
  for (const auto& profile : profiles) {
    const auto& model = profile.model();
    coefficient_bytes += model.coefficients().size() * sizeof(double);
    word_bytes += model.support_vectors().bitset()->words.size_bytes();
  }
  // Slack per profile for its user id and the allocator's chunk headers —
  // far below one SV block's words.
  const std::size_t slack = 128;
  ASSERT_GT(word_bytes, store.size() * slack);
  EXPECT_LE(grown, store.size() * (sizeof(core::UserProfile) + slack) +
                       coefficient_bytes)
      << "coefficients " << coefficient_bytes << " B, SV words " << word_bytes
      << " B";
#endif
}

/// A store's bytes are a function of its profiles alone: trained and
/// written with the bitset plane off (csr) and on (the default backend),
/// the file is the same byte for byte.
TEST(MappedStore, BytesIndependentOfKernelBackend) {
  struct BackendGuard {
    ~BackendGuard() { svm::set_kernel_backend_for_testing(""); }
  } guard;
  const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
  const features::WindowConfig window{60, 30};
  const std::size_t dimension = dataset.schema().dimension();
  const auto write = [&](std::string_view backend, const std::string& name) {
    svm::set_kernel_backend_for_testing(backend);
    std::vector<core::UserProfile> profiles;
    const core::ProfileParams oc{core::ClassifierType::kOcSvm,
                                 {svm::KernelType::kRbf, 0.05, 0.0, 3}, 0.3};
    const core::ProfileParams svdd{core::ClassifierType::kSvdd,
                                   {svm::KernelType::kPolynomial, 0.125, 1.0, 3},
                                   0.5};
    for (std::size_t u = 0; u < 3; ++u) {
      const auto& user = dataset.user_ids()[u];
      profiles.push_back(core::UserProfile::train(
          user, *dataset.train_matrix(user, window), dimension,
          u % 2 == 0 ? oc : svdd));
    }
    const std::string path = ::testing::TempDir() + "/" + name;
    write_mapped_store(
        core::ProfileStore{window, dataset.schema(), std::move(profiles)}, path);
    return read_bytes(path);
  };
  const std::vector<char> csr = write("csr", "backend_csr.wtpstore");
  const std::vector<char> default_backend = write("", "backend_default.wtpstore");
  ASSERT_FALSE(csr.empty());
  EXPECT_TRUE(csr == default_backend) << "store bytes depend on the backend";

  // Every blob is laid out by the schema, so every query the serving
  // paths encode in the schema layout conforms to it.
  const MappedProfileStore mapped =
      MappedProfileStore::open(::testing::TempDir() + "/backend_default.wtpstore");
  const std::vector<std::uint32_t> schema_cols = dataset.schema().numeric_columns();
  for (std::size_t u = 0; u < mapped.size(); ++u) {
    const svm::ModelView view = mapped.model(u);
    ASSERT_TRUE(view.support_vectors.bitset) << u;
    EXPECT_TRUE(std::ranges::equal(view.support_vectors.bitset->numeric_cols,
                                   schema_cols))
        << u;
  }
}

TEST(MappedStore, RewritingMappedPathKeepsBorrowedProfiles) {
  const auto first = small_population(8);
  const std::string path = write_population(first, "rewrite.wtpstore");
  const MappedProfileStore store = MappedProfileStore::open(path);
  std::vector<core::UserProfile> profiles;
  for (std::size_t u = 0; u < store.size(); ++u) {
    profiles.push_back(store.materialize_profile(u));
  }

  synthetic::ScaleConfig config;
  config.seed = 99;
  config.users = 3;
  const synthetic::ScalePopulation second{config};
  ASSERT_EQ(write_population(second, "rewrite.wtpstore"), path);

  for (std::size_t u = 0; u < profiles.size(); ++u) {
    const svm::SvmModel heap_model = first.make_model(u);
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
      const util::SparseVector x = first.sample_window(u, 0xbeef + salt);
      ASSERT_EQ(core::testing::decide(profiles[u], x),
                svm::testing::decide(heap_model, x));
      ASSERT_EQ(store.model(u).decision_value(
                    svm::KernelQueries::row(x, x.squared_norm())),
                svm::testing::decide(heap_model, x));
    }
  }
  const MappedProfileStore rewritten = MappedProfileStore::open(path);
  ASSERT_EQ(rewritten.size(), second.size());
  EXPECT_EQ(rewritten.user_id(2), second.user_id(2));
}

TEST(MappedStore, FailedFinishLeavesPathUntouched) {
  const auto population = small_population(2);
  // A directory at the target path makes the final rename fail.
  const std::string path = ::testing::TempDir() + "/occupied.wtpstore";
  std::filesystem::create_directories(path);
  MappedStoreWriter writer{path, population.window(), population.schema()};
  writer.add(population.user_id(0), population_params(population.config()),
             population.make_model(0));
  EXPECT_THROW(writer.finish(), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path));
}

TEST(MappedStore, AbandonedWriterLeavesPathUntouched) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "abandoned.wtpstore");
  const auto before = read_bytes(path);
  {
    MappedStoreWriter writer{path, population.window(), population.schema()};
    writer.add(population.user_id(1), population_params(population.config()),
               population.make_model(1));
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(read_bytes(path), before);
}

TEST(MappedStore, WriteMappedStoreMirrorsHeapStore) {
  const auto population = small_population(10);
  std::vector<core::UserProfile> profiles;
  const core::ProfileParams params = population_params(population.config());
  for (std::size_t u = 0; u < population.size(); ++u) {
    profiles.push_back(core::UserProfile::from_model(population.user_id(u), params,
                                                     population.make_model(u)));
  }
  const core::ProfileStore heap_store{population.window(), population.schema(),
                                      std::move(profiles)};
  const std::string path = ::testing::TempDir() + "/from_heap.wtpstore";
  write_mapped_store(heap_store, path);

  const MappedProfileStore mapped = MappedProfileStore::open(path);
  ASSERT_EQ(mapped.size(), heap_store.profiles().size());
  for (std::size_t u = 0; u < mapped.size(); ++u) {
    EXPECT_EQ(mapped.user_id(u), heap_store.profiles()[u].user_id());
    const util::SparseVector x = population.sample_window(u, 0x5a17);
    ASSERT_EQ(mapped.model(u).decision_value(
                  svm::KernelQueries::row(x, x.squared_norm())),
              core::testing::decide(heap_store.profiles()[u], x));
  }
}

TEST(MappedStore, MissingFileErrorNamesPath) {
  const std::string path = ::testing::TempDir() + "/does_not_exist.wtpstore";
  try {
    (void)MappedProfileStore::open(path);
    FAIL() << "missing file accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos);
  }
}

TEST(MappedStore, RejectsWrongMagic) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_magic.wtpstore");
  auto bytes = read_bytes(path);
  bytes[0] = 'X';
  write_bytes(path, bytes);
  EXPECT_THROW((void)MappedProfileStore::open(path), std::runtime_error);
}

TEST(MappedStore, RejectsWrongVersion) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_version.wtpstore");
  write_bytes(path, patched(read_bytes(path), 8, std::uint32_t{99}));
  EXPECT_THROW((void)MappedProfileStore::open(path), std::runtime_error);
}

TEST(MappedStore, RejectsInvalidWindowAndNamesPath) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_window.wtpstore");
  write_bytes(path, patched(read_bytes(path), offsetof(StoreHeader, window_shift),
                            std::int64_t{0}));
  try {
    (void)MappedProfileStore::open(path);
    FAIL() << "store with shift 0 accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shift"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(MappedStore, ForeignEndianErrorNamesByteOrderAndPath) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_endian.wtpstore");
  write_bytes(path, patched(read_bytes(path), 12, std::uint32_t{0x04030201}));
  try {
    (void)MappedProfileStore::open(path);
    FAIL() << "foreign-endian store accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("endian"), std::string::npos);
    EXPECT_NE(what.find(path), std::string::npos);
  }
}

TEST(MappedStore, RejectsTruncatedFile) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "truncated.wtpstore");
  const auto bytes = read_bytes(path);
  // Cut in several places: inside the header, the blobs, and the table.
  for (const std::size_t keep :
       {std::size_t{64}, bytes.size() / 2, bytes.size() - 40}) {
    write_bytes(path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW((void)MappedProfileStore::open(path), std::runtime_error)
        << "accepted a " << keep << "-byte truncation of " << bytes.size();
  }
}

TEST(MappedStore, RejectsUserCountThatWrapsTableSize) {
  // (user_count + 2^61) * sizeof(UserRecord) wraps back onto table_size.
  // The count check must refuse it: a record loop that ran past the table
  // would read beyond the mapping and fail, if at all, on whatever it found.
  const auto population = small_population(4);
  const std::string path = write_population(population, "wrapped_count.wtpstore");
  write_bytes(path, patched(read_bytes(path), offsetof(StoreHeader, user_count),
                            std::uint64_t{4} + (std::uint64_t{1} << 61)));
  try {
    (void)MappedProfileStore::open(path);
    FAIL() << "wrapped user count accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("user count"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(MappedStore, RejectsHugeSchemaCountAndNamesPath) {
  // The embedded schema's vocabulary counts are file input: a count of
  // 10^15 must fail as a truncated section, not size an allocation.
  const auto population = small_population(4);
  const std::string path = write_population(population, "huge_count.wtpstore");
  auto bytes = read_bytes(path);
  const std::string key = "categories ";
  const auto at = std::search(bytes.begin() + sizeof(StoreHeader), bytes.end(),
                              key.begin(), key.end());
  ASSERT_NE(at, bytes.end());
  const std::string huge = "1000000000000000";
  std::copy(huge.begin(), huge.end(), at + static_cast<long>(key.size()));
  write_bytes(path, bytes);
  try {
    (void)MappedProfileStore::open(path);
    FAIL() << "schema with a 10^15-entry vocabulary accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos) << e.what();
  }
}

TEST(MappedStore, RejectsCorruptUserRecord) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_record.wtpstore");
  const auto bytes = read_bytes(path);
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  // blob_off of record 0 (absolute offset table_off + 24) -> unaligned.
  write_bytes(path, patched(read_bytes(path),
                            static_cast<std::size_t>(header.table_off) + 24,
                            std::uint64_t{13}));
  EXPECT_THROW((void)MappedProfileStore::open(path), std::runtime_error);
  // classifier of record 0 (table_off + 12) -> unknown value.
  write_bytes(path, patched(bytes, static_cast<std::size_t>(header.table_off) + 12,
                            std::uint32_t{9}));
  EXPECT_THROW((void)MappedProfileStore::open(path), std::runtime_error);
}

TEST(MappedStore, RejectsCorruptBlobInsideValidStore) {
  const auto population = small_population(4);
  const std::string path = write_population(population, "bad_blob.wtpstore");
  const auto bytes = read_bytes(path);
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  UserRecord record;
  std::memcpy(&record, bytes.data() + header.table_off, sizeof record);
  // Open() validates geometry; the blob's own magic is checked on model(i).
  write_bytes(path, patched(bytes, static_cast<std::size_t>(record.blob_off),
                            std::uint64_t{0}));
  const MappedProfileStore store = MappedProfileStore::open(path);
  try {
    (void)store.model(0);
    FAIL() << "corrupt blob viewed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos);
  }
}

/// Field-for-field equality of two views of one blob; spans compare by
/// length and content, so views over different copies of the bytes agree.
void expect_same_view(const svm::ModelView& got, const svm::ModelView& want,
                      std::size_t user) {
  const auto same = [](auto a, auto b) { return std::ranges::equal(a, b); };
  EXPECT_EQ(got.kind, want.kind) << "user " << user;
  EXPECT_EQ(got.kernel, want.kernel) << "user " << user;
  EXPECT_EQ(got.scalar0, want.scalar0) << "user " << user;
  EXPECT_EQ(got.scalar1, want.scalar1) << "user " << user;
  EXPECT_TRUE(same(got.coefficients, want.coefficients)) << "user " << user;
  const util::CsrView& a = got.support_vectors.csr;
  const util::CsrView& b = want.support_vectors.csr;
  EXPECT_EQ(a.cols, b.cols) << "user " << user;
  EXPECT_TRUE(same(a.indices, b.indices)) << "user " << user;
  EXPECT_TRUE(same(a.values, b.values)) << "user " << user;
  EXPECT_TRUE(same(a.row_offsets, b.row_offsets)) << "user " << user;
  EXPECT_TRUE(same(a.sq_norms, b.sq_norms)) << "user " << user;
  ASSERT_EQ(got.support_vectors.bitset.has_value(),
            want.support_vectors.bitset.has_value())
      << "user " << user;
  if (!got.support_vectors.bitset) return;
  const util::BitsetView& x = *got.support_vectors.bitset;
  const util::BitsetView& y = *want.support_vectors.bitset;
  EXPECT_EQ(x.cols, y.cols) << "user " << user;
  EXPECT_EQ(x.row_count, y.row_count) << "user " << user;
  EXPECT_EQ(x.words_per_row, y.words_per_row) << "user " << user;
  EXPECT_TRUE(same(x.words, y.words)) << "user " << user;
  EXPECT_TRUE(same(x.numeric_cols, y.numeric_cols)) << "user " << user;
  EXPECT_TRUE(same(x.numeric_values, y.numeric_values)) << "user " << user;
}

// model(i) validates blob i once and then views it unchecked; the store keeps
// one bit per user, 64 to a word.  With every valid user's bit set, a corrupt
// blob must still be refused on every call, so no user's bit may land on
// another's.  The corrupt users sit where a wrong word or bit index would
// collide with a valid one: 64 opens the second word and shares bit 0 with
// user 0, and 1 shares its bit with 65 and its word with 0.
TEST(MappedStore, ValidatesEachBlobOnceAndKeepsRefusingCorruptOnes) {
  const auto population = small_population(70);
  const std::string path = write_population(population, "validate_once.wtpstore");
  auto bytes = read_bytes(path);
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  const auto record_of = [&](std::size_t u) {
    UserRecord record;
    std::memcpy(&record,
                bytes.data() + header.table_off + u * sizeof(UserRecord),
                sizeof record);
    return record;
  };
  const std::size_t corrupt[] = {1, 64};
  for (const std::size_t u : corrupt) {
    bytes = patched(bytes, static_cast<std::size_t>(record_of(u).blob_off),
                    std::uint64_t{0});
  }
  write_bytes(path, bytes);
  const MappedProfileStore store = MappedProfileStore::open(path);
  ASSERT_EQ(store.size(), 70u);
  // view_model_blob's view of each blob, over a heap copy of the file.
  const std::span<const std::byte> copy = std::as_bytes(std::span{bytes});

  for (std::size_t u = 0; u < store.size(); ++u) {
    if (std::find(std::begin(corrupt), std::end(corrupt), u) != std::end(corrupt)) {
      continue;
    }
    const UserRecord record = record_of(u);
    const svm::ModelView want =
        svm::view_model_blob(copy.subspan(record.blob_off, record.blob_size));
    const svm::ModelView first = store.model(u);
    const svm::ModelView second = store.model(u);
    expect_same_view(first, want, u);
    expect_same_view(second, want, u);
    EXPECT_EQ(second.coefficients.data(), first.coefficients.data()) << u;
  }
  for (const std::size_t u : corrupt) {
    const std::string offset =
        "(file offset " + std::to_string(record_of(u).blob_off) + ")";
    for (int call = 0; call < 2; ++call) {
      try {
        (void)store.model(u);
        ADD_FAILURE() << "corrupt blob of user " << u << " viewed on call "
                      << call;
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find(std::string{store.user_id(u)}), std::string::npos)
            << what;
        EXPECT_NE(what.find(offset), std::string::npos) << what;
      }
    }
  }
}

TEST(MappedStore, FinishIsIdempotentAndCountsUsers) {
  const auto population = small_population(3);
  const std::string path = ::testing::TempDir() + "/finish_twice.wtpstore";
  MappedStoreWriter writer{path, population.window(), population.schema()};
  const core::ProfileParams params = population_params(population.config());
  for (std::size_t u = 0; u < population.size(); ++u) {
    writer.add(population.user_id(u), params, population.make_model(u));
  }
  EXPECT_EQ(writer.user_count(), 3u);
  writer.finish();
  writer.finish();  // no-op
  EXPECT_EQ(MappedProfileStore::open(path).size(), 3u);
}

}  // namespace
}  // namespace wtp::index
