// Profile catalogs: the storage abstraction under the identification plane.
//
// A ProfileCatalog is an ordered set of (user id, one-class model) pairs
// sharing one feature schema and window configuration.  Two backends:
//
//   HeapProfileCatalog  — borrows a core::ProfileStore (the in-memory,
//                         fully materialized bundle).
//   MappedProfileStore  — the zero-copy backend: a single memory-mapped
//                         file (store_format.h) whose support-vector blocks
//                         are scored in place through svm::ModelView, so one
//                         node holds 10^6 profiles without heap churn.
//
// Both yield models as svm::ModelView through the same CsrView kernel path,
// so decision values are bit-identical across backends (equivalence-tested
// in tests/index and tests/svm).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/profile_store.h"
#include "index/mapped_file.h"
#include "index/store_format.h"
#include "svm/model_io.h"

namespace wtp::index {

class ProfileCatalog {
 public:
  virtual ~ProfileCatalog() = default;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual std::string_view user_id(std::size_t i) const = 0;
  /// Zero-copy decision view of user i's model.  Valid while the catalog is.
  [[nodiscard]] virtual svm::ModelView model(std::size_t i) const = 0;
  [[nodiscard]] virtual const features::FeatureSchema& schema() const noexcept = 0;
  [[nodiscard]] virtual const features::WindowConfig& window() const noexcept = 0;
};

/// Borrowing adapter over core::ProfileStore, preserving profile order.
/// The store must outlive the catalog.
class HeapProfileCatalog final : public ProfileCatalog {
 public:
  explicit HeapProfileCatalog(const core::ProfileStore& store) : store_{&store} {}

  [[nodiscard]] std::size_t size() const noexcept override {
    return store_->profiles().size();
  }
  [[nodiscard]] std::string_view user_id(std::size_t i) const override {
    return store_->profiles()[i].user_id();
  }
  [[nodiscard]] svm::ModelView model(std::size_t i) const override {
    return svm::view_of(store_->profiles()[i].model());
  }
  [[nodiscard]] const features::FeatureSchema& schema() const noexcept override {
    return store_->schema();
  }
  [[nodiscard]] const features::WindowConfig& window() const noexcept override {
    return store_->window();
  }

 private:
  const core::ProfileStore* store_;
};

/// Streaming writer for the mapped store format.  Profiles are appended one
/// at a time (the million-user bench never holds them all in memory); the
/// header is patched on finish().  The file is written as `path + ".tmp"`
/// and renamed over `path` only by a successful finish(), so a store that
/// is mapped at `path` — and every profile borrowing its pages — keeps its
/// bytes while a new one is written there.
class MappedStoreWriter {
 public:
  /// Opens `path + ".tmp"` for writing and emits header placeholder +
  /// schema.  Throws std::runtime_error (message includes the path) on I/O
  /// errors.
  MappedStoreWriter(const std::string& path, const features::WindowConfig& window,
                    const features::FeatureSchema& schema);
  ~MappedStoreWriter();

  MappedStoreWriter(const MappedStoreWriter&) = delete;
  MappedStoreWriter& operator=(const MappedStoreWriter&) = delete;

  /// Appends one user's model blob and table entry.
  void add(std::string_view user_id, const core::ProfileParams& params,
           const svm::SvmModel& model);
  void add(const core::UserProfile& profile) {
    add(profile.user_id(), profile.params(), profile.model());
  }

  /// Writes string pool + user table, patches the header, closes the file
  /// and renames it over `path`.  On failure it removes the temp file,
  /// leaves `path` as it was, and throws std::runtime_error.  Idempotent.
  /// A writer destroyed before finish() removes its temp file and leaves
  /// `path` untouched.
  void finish();

  [[nodiscard]] std::size_t user_count() const noexcept { return records_.size(); }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::vector<UserRecord> records_;
};

/// Serializes a whole heap store into one mapped-store file.
void write_mapped_store(const core::ProfileStore& store, const std::string& path);

/// Opens the mapped store at `path` and materializes every profile, in
/// store order; the profiles' support vectors borrow the mapping, which
/// they keep alive.  Throws std::runtime_error naming `path` on a malformed
/// store or model (MappedProfileStore::open and model()).
[[nodiscard]] core::ProfileStore read_mapped_store(const std::string& path);

/// The zero-copy catalog: opens a store_format.h file, validates its
/// geometry, and serves models as views into the mapping.
class MappedProfileStore final : public ProfileCatalog {
 public:
  /// Maps and validates `path`.  Throws std::runtime_error with the
  /// offending path in the message on malformed input (bad magic/version,
  /// foreign endianness, truncation, out-of-bounds sections or records).
  [[nodiscard]] static MappedProfileStore open(const std::string& path);

  [[nodiscard]] std::size_t size() const noexcept override { return records_.size(); }
  [[nodiscard]] std::string_view user_id(std::size_t i) const override;
  /// Views the blob in place (no allocation, no copies).  The first call
  /// for user i validates it (svm::view_model_blob; a model with more
  /// columns than the schema is refused too) and sets the user's bit; later
  /// calls only locate its sections.  Thread-safe.
  [[nodiscard]] svm::ModelView model(std::size_t i) const override;
  [[nodiscard]] const features::FeatureSchema& schema() const noexcept override {
    return schema_;
  }
  [[nodiscard]] const features::WindowConfig& window() const noexcept override {
    return window_;
  }

  /// Stored learning parameters of user i (kernel read from the blob).
  [[nodiscard]] core::ProfileParams params(std::size_t i) const;
  /// User i as a heap profile whose support vectors borrow the mapping
  /// (svm::materialize); only the coefficients are copied.  The profile
  /// shares ownership of the mapping, so it stays valid after this store
  /// is destroyed or the file is removed.
  [[nodiscard]] core::UserProfile materialize_profile(std::size_t i) const;

  /// Size of the backing file — the resident-memory budget of the whole
  /// profile set (everything else this class owns is the parsed schema and
  /// one span per user).
  [[nodiscard]] std::size_t mapped_bytes() const noexcept { return file_->size(); }
  [[nodiscard]] const std::string& path() const noexcept { return file_->path(); }

 private:
  MappedProfileStore(std::shared_ptr<const MappedFile> file,
                     features::WindowConfig window,
                     features::FeatureSchema schema,
                     std::span<const UserRecord> records,
                     std::span<const char> pool);

  /// Shared with every materialized profile, which borrows its pages.
  std::shared_ptr<const MappedFile> file_;
  features::WindowConfig window_;
  features::FeatureSchema schema_;
  std::span<const UserRecord> records_;  ///< into the mapping
  std::span<const char> pool_;           ///< into the mapping
  /// One bit per user, set once model(i) has validated blob i.
  std::unique_ptr<std::atomic<std::uint64_t>[]> checked_;
};

}  // namespace wtp::index
