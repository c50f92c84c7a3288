#include "util/pages.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace wtp::util {

void release_pages(void* begin, void* end) noexcept {
  static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto first = (reinterpret_cast<std::uintptr_t>(begin) + page - 1) / page * page;
  const auto last = reinterpret_cast<std::uintptr_t>(end) / page * page;
  if (first >= last) return;
  (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

}  // namespace wtp::util
