// SharedString: an immutable, reference-counted string handle of 8 bytes.
//
// The empty string is a null pointer.  Any other value is a pointer to one
// heap block holding an atomic reference count, the size and the bytes
// (NUL-terminated).  A copy bumps the count and shares the block; a move
// steals the pointer and leaves the source empty.  The bytes never change,
// so a string_view into a handle's value stays valid for as long as any
// handle to the same block lives, whichever handle it was taken from.
//
// Handles are made to be shared: a log whose fields take their values from
// small vocabularies holds each distinct value once when its producer builds
// one handle per value and copies it into every row (DESIGN §7, "One
// transaction log").  Building a handle from text always allocates a fresh
// block; this header keeps no global table of values.
#pragma once

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace wtp::util {

class SharedString {
 public:
  SharedString() noexcept = default;
  /// Copies the text into a new block (none for empty text).  Implicit, so
  /// a field of this type is assigned from a string like a std::string.
  SharedString(std::string_view text);  // NOLINT(google-explicit-constructor)
  SharedString(const std::string& text)  // NOLINT(google-explicit-constructor)
      : SharedString{std::string_view{text}} {}
  SharedString(const char* text)  // NOLINT(google-explicit-constructor)
      : SharedString{std::string_view{text}} {}

  SharedString(const SharedString& other) noexcept : rep_{other.rep_} { retain(); }
  SharedString(SharedString&& other) noexcept
      : rep_{std::exchange(other.rep_, nullptr)} {}
  SharedString& operator=(const SharedString& other) noexcept {
    SharedString{other}.swap(*this);
    return *this;
  }
  SharedString& operator=(SharedString&& other) noexcept {
    SharedString{std::move(other)}.swap(*this);
    return *this;
  }
  ~SharedString() { release(); }

  void swap(SharedString& other) noexcept { std::swap(rep_, other.rep_); }

  [[nodiscard]] std::string_view view() const noexcept {
    return rep_ == nullptr ? std::string_view{} : std::string_view{bytes(), rep_->size};
  }
  operator std::string_view() const noexcept { return view(); }  // NOLINT
  operator std::string() const { return std::string{view()}; }   // NOLINT

  /// NUL-terminated; "" for the empty string.
  [[nodiscard]] const char* c_str() const noexcept {
    return rep_ == nullptr ? "" : bytes();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return rep_ == nullptr ? 0 : rep_->size;
  }
  [[nodiscard]] bool empty() const noexcept { return rep_ == nullptr; }

  /// Handles that share one block (or are both empty).
  [[nodiscard]] bool shares_with(const SharedString& other) const noexcept {
    return rep_ == other.rep_;
  }

  // Comparisons with each string type a caller holds, so none of them needs
  // a conversion that could make the call ambiguous.
  friend bool operator==(const SharedString& a, const SharedString& b) noexcept {
    return a.rep_ == b.rep_ || a.view() == b.view();
  }
  friend bool operator==(const SharedString& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const SharedString& a, const std::string& b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const SharedString& a, const char* b) noexcept {
    return a.view() == b;
  }
  friend std::strong_ordering operator<=>(const SharedString& a,
                                          const SharedString& b) noexcept {
    return a.view() <=> b.view();
  }
  friend std::strong_ordering operator<=>(const SharedString& a,
                                          std::string_view b) noexcept {
    return a.view() <=> b;
  }
  friend std::strong_ordering operator<=>(const SharedString& a,
                                          const std::string& b) noexcept {
    return a.view() <=> std::string_view{b};
  }
  friend std::strong_ordering operator<=>(const SharedString& a,
                                          const char* b) noexcept {
    return a.view() <=> std::string_view{b};
  }

  friend std::ostream& operator<<(std::ostream& out, const SharedString& text);

 private:
  struct Rep {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;
    // The bytes and a NUL follow in the same block.
  };

  [[nodiscard]] const char* bytes() const noexcept {
    return reinterpret_cast<const char*>(rep_ + 1);
  }
  void retain() const noexcept {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    if (rep_ != nullptr && rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      destroy(rep_);
    }
  }
  static void destroy(Rep* rep) noexcept;

  Rep* rep_ = nullptr;
};

/// Hash and equality for unordered containers keyed by std::string that
/// look up by any string type (string_view, SharedString, literals) without
/// building a std::string: use with std::equal_to<>.  Hashes equal
/// std::hash<std::string> on the same bytes.
struct TransparentStringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace wtp::util

template <>
struct std::hash<wtp::util::SharedString> {
  std::size_t operator()(const wtp::util::SharedString& text) const noexcept {
    return std::hash<std::string_view>{}(text.view());
  }
};
