#include "index/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace wtp::index {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error{"MappedFile: " + what + " '" + path +
                           "': " + std::strerror(errno)};
}

}  // namespace

MappedFile::MappedFile(const std::string& path) : path_{path} {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {  // mmap refuses a zero length
    ::close(fd);
    return;
  }
  data_ = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference
  if (data_ == MAP_FAILED) {
    data_ = nullptr;
    fail(path, "cannot mmap");
  }
}

MappedFile::~MappedFile() { reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_{std::move(other.path_)},
      data_{std::exchange(other.data_, nullptr)},
      size_{std::exchange(other.size_, 0)} {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    path_ = std::move(other.path_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::reset() noexcept {
  if (data_ != nullptr) {
    ::munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace wtp::index
