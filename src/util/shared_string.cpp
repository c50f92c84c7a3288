#include "util/shared_string.h"

#include <cstring>
#include <limits>
#include <new>
#include <ostream>
#include <stdexcept>

namespace wtp::util {

SharedString::SharedString(std::string_view text) {
  if (text.empty()) return;
  if (text.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error{"SharedString: value longer than 2^32 - 1 bytes"};
  }
  void* block = ::operator new(sizeof(Rep) + text.size() + 1);
  rep_ = ::new (block) Rep{{1}, static_cast<std::uint32_t>(text.size())};
  char* out = reinterpret_cast<char*>(rep_ + 1);
  std::memcpy(out, text.data(), text.size());
  out[text.size()] = '\0';
}

void SharedString::destroy(Rep* rep) noexcept {
  rep->~Rep();
  ::operator delete(rep);
}

std::ostream& operator<<(std::ostream& out, const SharedString& text) {
  return out << text.view();
}

}  // namespace wtp::util
