// Returning a vector's spare capacity to the operating system.
//
// A vector shrunk by erase keeps its buffer: the pages past size() stay
// resident if they were ever written, and shrink_to_fit would copy every
// remaining element into a new buffer to free them.  release_spare_capacity
// instead drops the whole pages of [size(), capacity()) in place, so the
// elements stay where they are (spans and pointers into them stay valid)
// and the vector keeps its capacity.
#pragma once

#include <cstddef>
#include <vector>

namespace wtp::util {

/// Returns the whole pages inside [begin, end) to the operating system
/// (madvise MADV_DONTNEED).  Partial pages at either end are left alone.
/// The caller guarantees that no object lives in the range: a released page
/// reads back as zeros on its next touch.  Best effort; errors are ignored.
void release_pages(void* begin, void* end) noexcept;

/// Releases the pages of a vector's unused tail [size(), capacity()).  Safe
/// because no element lives there, and the allocator's own bookkeeping for
/// the block sits outside the element range: before data() or past
/// data() + capacity(), which the page rounding never reaches.  A later
/// push_back constructs into zeroed memory, which is as valid as the old
/// bytes.
template <typename T>
void release_spare_capacity(std::vector<T>& values) noexcept {
  release_pages(values.data() + values.size(), values.data() + values.capacity());
}

}  // namespace wtp::util
