#include "index/mapped_store.h"

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "features/schema_io.h"

namespace wtp::index {

namespace {

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// The path leads: the message may go on to quote a user id from the file,
/// which can hold any bytes, a NUL included.  `offset` is the absolute file
/// offset of the field at fault.
[[noreturn]] void store_error(const std::string& path, const std::string& what,
                              std::uint64_t offset) {
  throw std::runtime_error{"MappedProfileStore '" + path + "': " + what +
                           " (file offset " + std::to_string(offset) + ")"};
}

core::ProfileParams record_params(const UserRecord& r,
                                  const svm::KernelParams& kernel) {
  core::ProfileParams params;
  params.type = static_cast<svm::SvmKind>(r.classifier);
  params.kernel = kernel;
  params.regularizer = r.regularizer;
  return params;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

struct MappedStoreWriter::Impl {
  std::string path;
  std::string temp_path;      ///< written first, renamed over path by finish()
  std::ofstream out;
  std::string pool;           ///< user-id string pool, appended as users come
  std::string schema_text;
  std::uint64_t offset = 0;   ///< current absolute write offset
  features::WindowConfig window;
  std::uint64_t dimension = 0;
  std::vector<std::uint32_t> numeric_cols;  ///< the schema's: the blobs' layout
  bool finished = false;

  void write(const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    if (!out) {
      throw std::runtime_error{"MappedStoreWriter: write failed on '" + temp_path +
                               "'"};
    }
    offset += size;
  }

  void pad_to_8() {
    static constexpr char zeros[8] = {};
    const std::size_t padded = align8(offset);
    if (padded != offset) write(zeros, padded - offset);
  }

  /// Drops the unfinished temp file; `path` is never touched.
  void discard() noexcept {
    out.close();
    std::remove(temp_path.c_str());
  }
};

MappedStoreWriter::MappedStoreWriter(const std::string& path,
                                     const features::WindowConfig& window,
                                     const features::FeatureSchema& schema)
    : impl_{std::make_unique<Impl>()} {
  impl_->path = path;
  impl_->temp_path = path + ".tmp";
  impl_->window = window;
  impl_->dimension = schema.dimension();
  impl_->numeric_cols = schema.numeric_columns();
  impl_->out.open(impl_->temp_path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    throw std::runtime_error{"MappedStoreWriter: cannot open '" +
                             impl_->temp_path + "'"};
  }
  const StoreHeader placeholder{};
  impl_->write(&placeholder, sizeof(placeholder));
  std::ostringstream schema_stream;
  features::save_schema(schema_stream, schema);
  impl_->schema_text = std::move(schema_stream).str();
  impl_->write(impl_->schema_text.data(), impl_->schema_text.size());
  impl_->pad_to_8();
}

MappedStoreWriter::~MappedStoreWriter() {
  if (!impl_->finished) impl_->discard();
}

void MappedStoreWriter::add(std::string_view user_id,
                            const core::ProfileParams& params,
                            const svm::SvmModel& model) {
  if (impl_->finished) {
    throw std::logic_error{"MappedStoreWriter: add() after finish()"};
  }
  impl_->pad_to_8();
  UserRecord record{};
  record.name_off = impl_->pool.size();
  record.name_len = static_cast<std::uint32_t>(user_id.size());
  record.classifier = static_cast<std::uint32_t>(params.type);
  record.regularizer = params.regularizer;
  record.blob_off = impl_->offset;
  impl_->pool.append(user_id);

  // Serialized standalone so the blob's internal alignment (computed from
  // buffer offset 0) matches its 8-aligned position in the file.
  std::vector<std::byte> blob;
  svm::append_model_blob(blob, model, impl_->numeric_cols);
  record.blob_size = blob.size();
  impl_->write(blob.data(), blob.size());
  records_.push_back(record);
}

void MappedStoreWriter::finish() {
  if (impl_->finished) return;
  impl_->finished = true;
  try {
    StoreHeader header{};
    std::memcpy(header.magic, kStoreMagic, sizeof(kStoreMagic));
    header.version = kStoreVersion;
    header.endian = kStoreEndianGuard;
    header.user_count = records_.size();
    header.dimension = impl_->dimension;
    header.window_duration = impl_->window.duration_s;
    header.window_shift = impl_->window.shift_s;
    header.schema_off = sizeof(StoreHeader);
    header.schema_size = impl_->schema_text.size();

    header.pool_off = impl_->offset;
    header.pool_size = impl_->pool.size();
    impl_->write(impl_->pool.data(), impl_->pool.size());
    impl_->pad_to_8();

    header.table_off = impl_->offset;
    header.table_size = records_.size() * sizeof(UserRecord);
    impl_->write(records_.data(), header.table_size);
    header.file_size = impl_->offset;

    impl_->out.seekp(0);
    impl_->out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    impl_->out.close();
    if (!impl_->out) {
      throw std::runtime_error{"MappedStoreWriter: finish failed on '" +
                               impl_->temp_path + "'"};
    }
    // A new inode replaces the old one, so mappings of the old file keep
    // their bytes.
    if (std::rename(impl_->temp_path.c_str(), impl_->path.c_str()) != 0) {
      throw std::runtime_error{"MappedStoreWriter: cannot rename '" +
                               impl_->temp_path + "' over '" + impl_->path +
                               "': " + std::strerror(errno)};
    }
  } catch (...) {
    impl_->discard();
    throw;
  }
}

void write_mapped_store(const core::ProfileStore& store, const std::string& path) {
  MappedStoreWriter writer{path, store.window(), store.schema()};
  for (const auto& profile : store.profiles()) writer.add(profile);
  writer.finish();
}

core::ProfileStore read_mapped_store(const std::string& path) {
  const MappedProfileStore mapped = MappedProfileStore::open(path);
  std::vector<core::UserProfile> profiles;
  profiles.reserve(mapped.size());
  for (std::size_t i = 0; i < mapped.size(); ++i) {
    profiles.push_back(mapped.materialize_profile(i));
  }
  return core::ProfileStore{mapped.window(), mapped.schema(), std::move(profiles)};
}

// ---------------------------------------------------------------------------
// Reader.

MappedProfileStore MappedProfileStore::open(const std::string& path) {
  auto file = std::make_shared<const MappedFile>(path);
  const auto bytes = file->bytes();
  if (bytes.size() < sizeof(StoreHeader)) {
    store_error(path,
                "truncated header (" + std::to_string(bytes.size()) + " bytes)",
                bytes.size());
  }
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kStoreMagic, sizeof(kStoreMagic)) != 0) {
    store_error(path, "bad magic (not a wtp profile store)",
                offsetof(StoreHeader, magic));
  }
  if (header.endian != kStoreEndianGuard) {
    if (header.endian == 0x04030201u) {
      store_error(path, "endianness guard mismatch (foreign-endian writer)",
                  offsetof(StoreHeader, endian));
    }
    store_error(path, "corrupt endianness guard", offsetof(StoreHeader, endian));
  }
  if (header.version != kStoreVersion) {
    store_error(path, "unsupported version " + std::to_string(header.version),
                offsetof(StoreHeader, version));
  }
  if (header.file_size != bytes.size()) {
    store_error(path,
                "file size " + std::to_string(bytes.size()) +
                    " does not match header file_size " +
                    std::to_string(header.file_size),
                offsetof(StoreHeader, file_size));
  }
  const auto check_section = [&](std::uint64_t off, std::uint64_t size,
                                 std::size_t field, const char* name) {
    if (off > bytes.size() || size > bytes.size() - off) {
      store_error(path, std::string{name} + " section out of file bounds", field);
    }
  };
  check_section(header.schema_off, header.schema_size,
                offsetof(StoreHeader, schema_off), "schema");
  check_section(header.table_off, header.table_size,
                offsetof(StoreHeader, table_off), "user table");
  check_section(header.pool_off, header.pool_size,
                offsetof(StoreHeader, pool_off), "string pool");
  if (header.table_off % 8 != 0) {
    store_error(path, "misaligned user table", offsetof(StoreHeader, table_off));
  }
  // Division, not user_count * sizeof(UserRecord): a crafted count would
  // wrap the product back onto table_size.
  if (header.table_size % sizeof(UserRecord) != 0 ||
      header.table_size / sizeof(UserRecord) != header.user_count) {
    store_error(path,
                "user table size " + std::to_string(header.table_size) +
                    " does not match user count " +
                    std::to_string(header.user_count),
                offsetof(StoreHeader, table_size));
  }

  features::WindowConfig window;
  window.duration_s = header.window_duration;
  window.shift_s = header.window_shift;
  try {
    features::check_window_config(window);
  } catch (const std::invalid_argument& e) {
    store_error(path, e.what(), offsetof(StoreHeader, window_duration));
  }

  std::istringstream schema_stream{std::string{
      reinterpret_cast<const char*>(bytes.data() + header.schema_off),
      header.schema_size}};
  features::FeatureSchema schema = [&] {
    try {
      return features::load_schema(schema_stream);
    } catch (const std::exception& e) {
      store_error(path, std::string{"embedded schema is malformed: "} + e.what(),
                  header.schema_off);
    }
  }();
  if (schema.dimension() != header.dimension) {
    store_error(path,
                "schema dimension " + std::to_string(schema.dimension()) +
                    " does not match header dimension " +
                    std::to_string(header.dimension),
                offsetof(StoreHeader, dimension));
  }

  const std::span<const UserRecord> records{
      reinterpret_cast<const UserRecord*>(bytes.data() + header.table_off),
      header.user_count};
  const std::span<const char> pool{
      reinterpret_cast<const char*>(bytes.data() + header.pool_off),
      header.pool_size};
  for (std::size_t i = 0; i < records.size(); ++i) {
    const UserRecord& r = records[i];
    const std::uint64_t record_off = header.table_off + i * sizeof(UserRecord);
    if (r.name_off > pool.size() || r.name_len > pool.size() - r.name_off) {
      store_error(path, "user " + std::to_string(i) + " name out of pool bounds",
                  record_off + offsetof(UserRecord, name_off));
    }
    if (r.blob_off > bytes.size() || r.blob_size > bytes.size() - r.blob_off ||
        r.blob_off % 8 != 0) {
      store_error(path, "user " + std::to_string(i) + " blob out of bounds",
                  record_off + offsetof(UserRecord, blob_off));
    }
    if (r.classifier > static_cast<std::uint32_t>(svm::SvmKind::kSvdd)) {
      store_error(path,
                  "user " + std::to_string(i) + " has unknown classifier " +
                      std::to_string(r.classifier),
                  record_off + offsetof(UserRecord, classifier));
    }
  }

  return MappedProfileStore{std::move(file), window, std::move(schema), records,
                            pool};
}

MappedProfileStore::MappedProfileStore(std::shared_ptr<const MappedFile> file,
                                       features::WindowConfig window,
                                       features::FeatureSchema schema,
                                       std::span<const UserRecord> records,
                                       std::span<const char> pool)
    : file_{std::move(file)},
      window_{window},
      schema_{std::move(schema)},
      records_{records},
      pool_{pool},
      checked_{std::make_unique<std::atomic<std::uint64_t>[]>(
          (records.size() + 63) / 64)} {}

std::string_view MappedProfileStore::user_id(std::size_t i) const {
  const UserRecord& r = records_[i];
  return {pool_.data() + r.name_off, r.name_len};
}

svm::ModelView MappedProfileStore::model(std::size_t i) const {
  const UserRecord& r = records_[i];
  std::atomic<std::uint64_t>& word = checked_[i / 64];
  const std::uint64_t bit = std::uint64_t{1} << (i % 64);
  if ((word.load(std::memory_order_acquire) & bit) != 0) {
    return svm::view_checked_model_blob(
        file_->bytes().subspan(r.blob_off, r.blob_size));
  }
  svm::ModelView view;
  try {
    view = svm::view_model_blob(file_->bytes().subspan(r.blob_off, r.blob_size));
  } catch (const std::exception& e) {
    store_error(file_->path(),
                "user '" + std::string{user_id(i)} + "': " + e.what(),
                r.blob_off);
  }
  // Scoring expands each query densely over the model's columns, so the
  // schema bounds them.
  if (view.support_vectors.csr.cols > schema_.dimension()) {
    store_error(file_->path(),
                "user '" + std::string{user_id(i)} + "' has " +
                    std::to_string(view.support_vectors.csr.cols) +
                    " columns, schema has " +
                    std::to_string(schema_.dimension()),
                r.blob_off);
  }
  word.fetch_or(bit, std::memory_order_release);
  return view;
}

core::ProfileParams MappedProfileStore::params(std::size_t i) const {
  return record_params(records_[i], model(i).kernel);
}

core::UserProfile MappedProfileStore::materialize_profile(std::size_t i) const {
  const svm::ModelView view = model(i);
  return core::UserProfile::from_model(std::string{user_id(i)},
                                       record_params(records_[i], view.kernel),
                                       svm::materialize(view, file_));
}

}  // namespace wtp::index
