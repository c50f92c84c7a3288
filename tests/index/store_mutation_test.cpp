// Deterministic mutation sweep of the profile-store reader.  A small store
// mixing OC-SVM and SVDD profiles, one model blob of each layout (v1 CSR
// rows, v3 bitset rows), is mutated three ways: truncated at every 8-byte
// boundary; each integer field of the store header, the first user record
// and both model blobs' headers (plus the v3 blob's numeric columns) set to
// 0, 1, all ones and its value plus a high bit, in the store as written and
// in one whose blob bodies read back as zeros; and a fixed budget of
// util::Rng-seeded bit flips.
// The property, for every mutant: read_mapped_store either returns a store
// whose every profile scores one fixed window, or throws a
// std::runtime_error naming the file and a file offset; and each user's
// blob, copied into a heap buffer of exactly its size, is either viewed by
// svm::view_model_blob or refused with a std::runtime_error naming a blob
// offset.  Nothing crashes; the sanitized build runs the sweep under
// ASan/UBSan, which bounds the heap copies (a read past a blob inside the
// mapping lands on the store's next section, where no sanitizer sees it).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/profile_store.h"
#include "core/profile_test_util.h"
#include "core/test_trace.h"
#include "index/mapped_store.h"
#include "index/store_format.h"
#include "svm/model_io.h"
#include "util/rng.h"

namespace wtp::index {
namespace {

const features::WindowConfig kWindow{60, 30};
constexpr std::size_t kTrainingRows = 24;
constexpr std::size_t kBitFlips = 1500;

/// A file of the running test's own, removed when the process exits.
/// ctest runs tests as parallel processes, and two build trees' test runs
/// may share the temp directory, so the name carries the test and the
/// process id: rewriting a file another process has mapped would raise
/// SIGBUS there.
std::string test_path(const std::string& suffix) {
  struct Files {
    std::set<std::string> paths;
    ~Files() {
      for (const std::string& path : paths) std::remove(path.c_str());
    }
  };
  static Files files;
  const std::string path =
      ::testing::TempDir() + "/" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + suffix;
  files.paths.insert(path);
  return path;
}

struct Blob {
  std::size_t off = 0;  ///< as written
  std::size_t size = 0;
};

struct Corpus {
  std::vector<char> bytes;
  Blob csr_blob;     ///< the first user's: v1
  Blob bitset_blob;  ///< the second user's: v3
  util::SparseVector window;  ///< the window every loaded profile scores
};

/// Two small profiles, so the store can be swept exhaustively: an OC-SVM
/// (RBF) over rows with more than 16 non-binary columns, whose blob holds
/// CSR rows (v1), then an SVDD (polynomial) over a user's windows, whose
/// blob holds bitset rows (v3).
const Corpus& corpus() {
  static const Corpus built = [] {
    const core::ProfilingDataset& dataset = core::testing::tiny_dataset();
    const std::size_t dimension = dataset.schema().dimension();
    util::Rng rng{0xc0de};
    util::FeatureMatrixBuilder dense;
    for (std::size_t row = 0; row < kTrainingRows; ++row) {
      for (std::size_t col = 0; col < 20; ++col) {
        dense.add(col * 3, rng.uniform(0.1, 0.9));
      }
      dense.finish_row();
    }
    auto windows =
        core::testing::rows_of(*dataset.train_matrix(dataset.user_ids()[1], kWindow));
    windows.resize(std::min(windows.size(), kTrainingRows));
    std::vector<core::UserProfile> profiles;
    profiles.push_back(core::UserProfile::train(
        dataset.user_ids()[0], dense.build(dimension), dimension,
        {core::ClassifierType::kOcSvm, {svm::KernelType::kRbf, 0.05, 0.0, 3},
         0.2}));
    profiles.push_back(core::UserProfile::train(
        dataset.user_ids()[1], util::FeatureMatrix::from_rows(windows),
        dimension,
        {core::ClassifierType::kSvdd,
         {svm::KernelType::kPolynomial, 0.125, 1.0, 3}, 0.5}));
    const std::string path = test_path("_corpus.wtpstore");
    write_mapped_store(
        core::ProfileStore{kWindow, dataset.schema(), std::move(profiles)}, path);
    std::ifstream in{path, std::ios::binary};
    Corpus corpus;
    corpus.bytes.assign(std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{});
    StoreHeader header;
    std::memcpy(&header, corpus.bytes.data(), sizeof header);
    UserRecord records[2];
    std::memcpy(records, corpus.bytes.data() + header.table_off, sizeof records);
    corpus.csr_blob = {records[0].blob_off, records[0].blob_size};
    corpus.bitset_blob = {records[1].blob_off, records[1].blob_size};
    std::uint32_t versions[2];
    std::memcpy(&versions[0], corpus.bytes.data() + corpus.csr_blob.off + 8, 4);
    std::memcpy(&versions[1], corpus.bytes.data() + corpus.bitset_blob.off + 8, 4);
    EXPECT_EQ(versions[0], 1u);
    EXPECT_EQ(versions[1], 3u);
    corpus.window =
        dataset.test_matrix(dataset.user_ids().front(), kWindow)->row_vector(0);
    return corpus;
  }();
  return built;
}

/// One mutant's store file, written under a name of its own and removed
/// when the check is done.  Rewriting one path in place would cost a disk
/// flush per mutant on file systems that flush a truncated file's new data
/// on close (ext4's auto_da_alloc), which made the sweep's wall time
/// minutes of waiting on the disk; a fresh file is not flushed.
class MutantFile {
 public:
  explicit MutantFile(std::span<const char> bytes)
      : path_{test_path("_mutant" + std::to_string(next_++) + ".wtpstore")} {
    std::ofstream out{path_, std::ios::binary};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  MutantFile(const MutantFile&) = delete;
  MutantFile& operator=(const MutantFile&) = delete;
  ~MutantFile() { std::remove(path_.c_str()); }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  static inline std::size_t next_ = 0;
  std::string path_;
};

/// Whether `message` names a byte offset (`"<kind> offset <n>"`).
bool names_offset(const std::string& message, const std::string& kind) {
  const std::size_t at = message.find(kind + " offset ");
  return at != std::string::npos &&
         std::isdigit(static_cast<unsigned char>(
             message[at + kind.size() + std::strlen(" offset ")]));
}

::testing::AssertionResult survives(std::span<const char> bytes,
                                    const std::string& mutant) {
  const Corpus& c = corpus();
  for (const Blob& b : {c.csr_blob, c.bitset_blob}) {
    if (b.off + b.size > bytes.size()) continue;
    std::vector<std::byte> blob(b.size);
    std::memcpy(blob.data(), bytes.data() + b.off, b.size);
    try {
      (void)svm::view_model_blob(blob);
    } catch (const std::runtime_error& e) {
      if (!names_offset(e.what(), "blob")) {
        return ::testing::AssertionFailure()
               << mutant << ": blob refusal names no offset: " << e.what();
      }
    } catch (const std::exception& e) {
      return ::testing::AssertionFailure()
             << mutant << ": blob not refused with a std::runtime_error: "
             << e.what();
    }
  }
  const MutantFile file{bytes};
  const std::string& path = file.path();
  try {
    const core::ProfileStore store = read_mapped_store(path);
    for (const auto& profile : store.profiles()) {
      (void)core::testing::decide(profile, c.window);
    }
    return ::testing::AssertionSuccess();
  } catch (const std::runtime_error& e) {
    if (std::string{e.what()}.find(path) == std::string::npos) {
      return ::testing::AssertionFailure()
             << mutant << ": error does not name the file: " << e.what();
    }
    if (!names_offset(e.what(), "file")) {
      return ::testing::AssertionFailure()
             << mutant << ": error names no file offset: " << e.what();
    }
    return ::testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure()
           << mutant << ": not a std::runtime_error: " << e.what();
  }
}

struct Field {
  std::string name;
  std::size_t offset;  ///< absolute, in the corpus file
  std::size_t width;   ///< 4 or 8 bytes
};

/// Integer fields of one model blob's header (svm/model_io.h layout).
void add_blob_fields(std::vector<Field>& fields, const char* prefix,
                     std::size_t blob) {
  const std::pair<const char*, std::pair<std::size_t, std::size_t>> header[] = {
      {"version", {8, 4}},    {"endian", {12, 4}},     {"model_type", {16, 4}},
      {"kernel_type", {20, 4}}, {"degree", {40, 4}},   {"value_format", {44, 4}},
      {"sv_count", {64, 8}},  {"nnz", {72, 8}},        {"cols", {80, 8}},
      {"blob_size", {88, 8}},
  };
  for (const auto& [name, at] : header) {
    fields.push_back({std::string{prefix} + name, blob + at.first, at.second});
  }
}

/// Integer fields of the store header, of the first UserRecord, of both
/// model blobs' headers, and of the v3 blob's bitset sections: its numeric
/// column count and first two numeric columns.
std::vector<Field> integer_fields(const Corpus& c) {
  StoreHeader header;
  std::memcpy(&header, c.bytes.data(), sizeof header);
  const std::size_t table = header.table_off;
  std::vector<Field> fields{
      {"store.version", offsetof(StoreHeader, version), 4},
      {"store.endian", offsetof(StoreHeader, endian), 4},
      {"store.user_count", offsetof(StoreHeader, user_count), 8},
      {"store.dimension", offsetof(StoreHeader, dimension), 8},
      {"store.window_duration", offsetof(StoreHeader, window_duration), 8},
      {"store.window_shift", offsetof(StoreHeader, window_shift), 8},
      {"store.schema_off", offsetof(StoreHeader, schema_off), 8},
      {"store.schema_size", offsetof(StoreHeader, schema_size), 8},
      {"store.table_off", offsetof(StoreHeader, table_off), 8},
      {"store.table_size", offsetof(StoreHeader, table_size), 8},
      {"store.pool_off", offsetof(StoreHeader, pool_off), 8},
      {"store.pool_size", offsetof(StoreHeader, pool_size), 8},
      {"store.file_size", offsetof(StoreHeader, file_size), 8},
      {"record.name_off", table + offsetof(UserRecord, name_off), 8},
      {"record.name_len", table + offsetof(UserRecord, name_len), 4},
      {"record.classifier", table + offsetof(UserRecord, classifier), 4},
      {"record.blob_off", table + offsetof(UserRecord, blob_off), 8},
      {"record.blob_size", table + offsetof(UserRecord, blob_size), 8},
  };
  add_blob_fields(fields, "v1.", c.csr_blob.off);
  add_blob_fields(fields, "v3.", c.bitset_blob.off);
  fields.push_back({"v3.numeric_count", c.bitset_blob.off + 96, 8});
  fields.push_back({"v3.numeric_cols[0]", c.bitset_blob.off + 104, 4});
  fields.push_back({"v3.numeric_cols[1]", c.bitset_blob.off + 108, 4});
  return fields;
}

TEST(StoreMutation, CorpusLoadsAndScores) {
  const Corpus& c = corpus();
  EXPECT_TRUE(survives(c.bytes, "unmutated"));
  const MutantFile unmutated{c.bytes};
  EXPECT_EQ(read_mapped_store(unmutated.path()).profiles().size(), 2u);
}

TEST(StoreMutation, EveryEightByteTruncation) {
  const Corpus& c = corpus();
  for (std::size_t size = 0; size < c.bytes.size(); size += 8) {
    ASSERT_TRUE(survives(std::span{c.bytes}.first(size),
                         "truncated to " + std::to_string(size)));
  }
}

TEST(StoreMutation, EveryIntegerFieldAtItsExtremes) {
  const Corpus& c = corpus();
  // Both blobs' bodies (everything after their 96-byte headers) zeroed, as
  // a hole in a preallocated file reads back.  Real sections stop a wrapped
  // count's scans early (row offsets stop ascending); all-zero ones do not.
  const std::vector<char> hole = [&c] {
    std::vector<char> bytes = c.bytes;
    for (const Blob& b : {c.csr_blob, c.bitset_blob}) {
      std::fill(bytes.begin() + static_cast<long>(b.off + 96),
                bytes.begin() + static_cast<long>(b.off + b.size), 0);
    }
    return bytes;
  }();
  for (const auto& [base, label] :
       {std::pair{&c.bytes, ""}, std::pair{&hole, " (zeroed blob body)"}}) {
    for (const Field& field : integer_fields(c)) {
      std::uint64_t value = 0;
      std::memcpy(&value, base->data() + field.offset, field.width);
      // "+ high bit" is 2^61 on u64 fields, whose products with a record
      // or element size wrap size_t back onto the original; 2^31 on u32.
      const std::uint64_t high = field.width == 8 ? std::uint64_t{1} << 61
                                                  : std::uint64_t{1} << 31;
      for (const std::uint64_t mutated : {std::uint64_t{0}, std::uint64_t{1},
                                          ~std::uint64_t{0}, value + high}) {
        std::vector<char> bytes = *base;
        std::memcpy(bytes.data() + field.offset, &mutated, field.width);
        ASSERT_TRUE(survives(bytes, field.name + " = " +
                                        std::to_string(mutated) + label));
      }
    }
  }
}

TEST(StoreMutation, SeededBitFlips) {
  const Corpus& c = corpus();
  util::Rng rng{0x5707e};
  for (std::size_t i = 0; i < kBitFlips; ++i) {
    std::vector<char> bytes = c.bytes;
    const std::size_t offset = rng.uniform_index(bytes.size());
    const int bit = static_cast<int>(rng.uniform_index(8));
    bytes[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
    ASSERT_TRUE(survives(bytes, "bit " + std::to_string(bit) + " of byte " +
                                    std::to_string(offset)));
  }
}

}  // namespace
}  // namespace wtp::index
