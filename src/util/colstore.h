// Shared scaffolding for the columnar on-disk stores.
//
// The `.sweep`, `.leak`, and `.fail` stores share one envelope: an
// 8-byte magic + u32 version header, a native-endian body, and a
// CRC-32 + 8-byte end-magic footer, published atomically via a
// pid-unique tmp file and rename. Each store family describes itself
// with a `Format` (magics, version, and the word used in error
// messages); the body layout — columns, descriptors, flags — stays in
// the owning store. Load errors always name the file and byte offset.
#ifndef FLATNET_UTIL_COLSTORE_H_
#define FLATNET_UTIL_COLSTORE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace flatnet::colstore {

// Constants of one store family. `magic`/`end_magic` are exactly 8
// bytes (not NUL-terminated); `kind` is the lowercase word used in
// error messages ("sweep store", "leak store", ...).
struct Format {
  const char* magic;
  const char* end_magic;
  std::uint32_t version;
  const char* kind;
};

// Bytes of the magic strings and of the CRC-32 + end-magic footer.
inline constexpr std::size_t kMagicBytes = 8;
inline constexpr std::size_t kFooterBytes = 4 + kMagicBytes;

// Raw byte append.
void Append(std::string& out, const void* data, std::size_t len);

template <typename T>
void AppendScalar(std::string& out, T value) {
  Append(out, &value, sizeof(value));
}

// The byte views accept either a slurped std::string or a memory-mapped
// region (string_view over the mapping) — validation is copy-free either
// way.
template <typename T>
T ReadScalar(std::string_view bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

// Fills `column` (already sized) from `bytes` at `offset` and advances
// `offset` past it. An empty column copies nothing: memcpy into the null
// data() of an empty vector is undefined even for zero bytes.
template <typename T>
void ReadColumn(std::string_view bytes, std::size_t& offset, std::vector<T>& column) {
  std::size_t len = column.size() * sizeof(T);
  if (len != 0) std::memcpy(column.data(), bytes.data() + offset, len);
  offset += len;
}

// Writes the 12-byte prologue shared by every store: magic + version.
void AppendMagicAndVersion(std::string& out, const Format& format);

// Appends the CRC-32 of everything serialized so far plus the end
// magic. Call last.
void AppendFooter(std::string& out, const Format& format);

// Publishes `bytes` at `path` via a pid-unique tmp file and atomic
// rename. `op` names the calling writer in errors ("WriteSweepStore").
void AtomicWriteFile(const std::string& path, const std::string& bytes, const char* op);

// Slurps the whole file; `label` prefixes open/read errors
// ("SweepStore").
std::string ReadFileBytes(const std::string& path, const char* label);

// Validates the size floor (header + footer), the magic, and the
// version. `min_bytes` is the store's fixed header size plus
// kFooterBytes. Callers run their own body checks afterwards so a
// corrupted field names itself before the CRC fires.
void CheckHeader(const std::string& path, std::string_view bytes, const Format& format,
                 std::size_t min_bytes);

// Validates the end magic and the CRC-32 over everything before the
// footer. Call after the body-shape checks.
void CheckFooter(const std::string& path, std::string_view bytes, const Format& format);

}  // namespace flatnet::colstore

#endif  // FLATNET_UTIL_COLSTORE_H_
