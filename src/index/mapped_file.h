// MappedFile: RAII read-only memory mapping (POSIX mmap).
//
// The identification plane's profile store is a single file mapped once;
// profile bytes are then paged in lazily by the kernel as users are scored,
// shared between processes, and never copied onto the heap.
#pragma once

#include <cstddef>
#include <span>
#include <string>

namespace wtp::index {

class MappedFile {
 public:
  MappedFile() = default;
  /// Maps `path` read-only in whole; an empty file maps to no bytes, which
  /// the reader then refuses as truncated.  Throws std::runtime_error
  /// (message includes the path) when the file cannot be opened, stat'ed,
  /// or mapped.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {static_cast<const std::byte*>(data_), size_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool mapped() const noexcept { return data_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void reset() noexcept;

  std::string path_;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace wtp::index
