// On-disk layout of the mapped profile store (docs/FORMATS.md §mmap).
//
// A single little-endian file holding every user profile of one deployment:
//
//   offset        section
//   0             StoreHeader (128 bytes)
//   128           feature schema, text (features::save_schema), schema_size
//   pad to 8
//   ...           model blobs, each 8-aligned (svm/model_io blob format)
//   ...           string pool (user ids, unterminated, back to back)
//   pad to 8
//   table_off     UserRecord[user_count]
//
// The user table goes last so the writer can stream blobs without knowing
// the final count up front; the header is patched in finish().  Everything
// a reader touches sits at natural alignment, so the whole store is usable
// in place from one mmap with zero deserialization.
#pragma once

#include <cstdint>

namespace wtp::index {

inline constexpr char kStoreMagic[8] = {'W', 'T', 'P', 'S', 'T', 'O', 'R', '1'};
inline constexpr std::uint32_t kStoreVersion = 1;
inline constexpr std::uint32_t kStoreEndianGuard = 0x01020304u;

struct StoreHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian;
  std::uint64_t user_count;
  std::uint64_t dimension;       ///< schema dimension (column count)
  std::int64_t window_duration;  ///< features::WindowConfig::duration_s
  std::int64_t window_shift;     ///< features::WindowConfig::shift_s
  std::uint64_t schema_off;
  std::uint64_t schema_size;
  std::uint64_t table_off;
  std::uint64_t table_size;
  std::uint64_t pool_off;
  std::uint64_t pool_size;
  std::uint64_t file_size;
  std::uint64_t reserved[3];
};
static_assert(sizeof(StoreHeader) == 128, "store header layout drifted");

struct UserRecord {
  std::uint64_t name_off;  ///< into the string pool (relative to pool_off)
  std::uint32_t name_len;
  std::uint32_t classifier;  ///< svm::SvmKind: 0 = OC-SVM, 1 = SVDD
  double regularizer;        ///< nu (OC-SVM) or C (SVDD)
  std::uint64_t blob_off;    ///< absolute file offset, 8-aligned
  std::uint64_t blob_size;
};
static_assert(sizeof(UserRecord) == 40, "user record layout drifted");

}  // namespace wtp::index
