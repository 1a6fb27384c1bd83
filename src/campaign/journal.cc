#include "campaign/journal.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/crc32.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::campaign {
namespace {

constexpr char kJournalMagic[8] = {'F', 'N', 'S', 'W', 'P', 'J', '0', '1'};
constexpr std::uint32_t kJournalVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x314B4843;  // "CHK1"
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4 + 4;
constexpr std::size_t kRecordOverhead = 4 + 4 + 4 + 4;  // magic, index, count, crc

template <typename T>
void AppendScalar(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T ReadScalar(const std::string& bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

std::string SerializeHeader(const JournalMeta& meta) {
  std::string out;
  out.append(kJournalMagic, sizeof(kJournalMagic));
  AppendScalar(out, kJournalVersion);
  AppendScalar(out, meta.columns);
  AppendScalar(out, meta.num_units);
  AppendScalar(out, meta.fingerprint);
  AppendScalar(out, meta.chunk_size);
  AppendScalar(out, Crc32(out.data(), out.size()));
  return out;
}

}  // namespace

Journal::~Journal() { Close(); }

Journal::Journal(Journal&& other) noexcept : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void Journal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Journal Journal::Create(const std::string& path, const JournalMeta& meta) {
  Journal journal;
  journal.path_ = path;
  journal.file_ = std::fopen(path.c_str(), "wb");
  if (journal.file_ == nullptr) {
    throw Error("Journal: cannot create " + path);
  }
  std::string header = SerializeHeader(meta);
  if (std::fwrite(header.data(), 1, header.size(), journal.file_) != header.size() ||
      std::fflush(journal.file_) != 0) {
    throw Error("Journal: write failure on " + path);
  }
  return journal;
}

Journal Journal::Recover(
    const std::string& path, const JournalMeta& meta,
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>* chunks) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("Journal: cannot open " + path + " for resume");
    bytes.assign((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  }
  if (bytes.size() < kHeaderBytes) {
    throw Error(StrFormat("%s:0: journal truncated inside the header (%zu bytes)",
                          path.c_str(), bytes.size()));
  }
  if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    throw Error(StrFormat("%s:0: bad journal magic", path.c_str()));
  }
  std::uint32_t header_crc = ReadScalar<std::uint32_t>(bytes, kHeaderBytes - 4);
  if (header_crc != Crc32(bytes.data(), kHeaderBytes - 4)) {
    throw Error(StrFormat("%s:%zu: journal header CRC mismatch", path.c_str(),
                          kHeaderBytes - 4));
  }
  JournalMeta stored;
  std::uint32_t version = ReadScalar<std::uint32_t>(bytes, 8);
  stored.columns = ReadScalar<std::uint32_t>(bytes, 12);
  stored.num_units = ReadScalar<std::uint64_t>(bytes, 16);
  stored.fingerprint = ReadScalar<std::uint64_t>(bytes, 24);
  stored.chunk_size = ReadScalar<std::uint32_t>(bytes, 32);
  if (version != kJournalVersion) {
    throw Error(StrFormat("%s:8: unsupported journal version %u", path.c_str(), version));
  }
  if (stored.fingerprint != meta.fingerprint || stored.num_units != meta.num_units) {
    throw Error(StrFormat("%s: journal was written for a different topology "
                          "(fingerprint %016llx vs %016llx, %llu vs %llu origins)",
                          path.c_str(), static_cast<unsigned long long>(stored.fingerprint),
                          static_cast<unsigned long long>(meta.fingerprint),
                          static_cast<unsigned long long>(stored.num_units),
                          static_cast<unsigned long long>(meta.num_units)));
  }
  if (stored.columns != meta.columns || stored.chunk_size != meta.chunk_size) {
    throw Error(StrFormat("%s: journal schema mismatch (columns 0x%x vs 0x%x, chunk size "
                          "%u vs %u) — rerun without --resume or match the original flags",
                          path.c_str(), stored.columns, meta.columns, stored.chunk_size,
                          meta.chunk_size));
  }

  // Scan records; the first incomplete or corrupt one ends the valid
  // prefix (a mid-append kill tears at most the final record).
  std::size_t offset = kHeaderBytes;
  while (offset + kRecordOverhead <= bytes.size()) {
    if (ReadScalar<std::uint32_t>(bytes, offset) != kRecordMagic) break;
    std::uint32_t count = ReadScalar<std::uint32_t>(bytes, offset + 8);
    std::size_t record_bytes = kRecordOverhead + std::size_t{count} * sizeof(std::uint32_t);
    if (offset + record_bytes > bytes.size()) break;
    std::uint32_t stored_crc =
        ReadScalar<std::uint32_t>(bytes, offset + record_bytes - 4);
    if (stored_crc != Crc32(bytes.data() + offset + 4, record_bytes - 8)) break;
    std::uint32_t chunk_index = ReadScalar<std::uint32_t>(bytes, offset + 4);
    std::vector<std::uint32_t> values(count);
    std::memcpy(values.data(), bytes.data() + offset + 12,
                std::size_t{count} * sizeof(std::uint32_t));
    chunks->emplace_back(chunk_index, std::move(values));
    offset += record_bytes;
  }

  // Drop the torn tail so future appends start at a record boundary.
  if (offset < bytes.size()) {
    std::error_code ec;
    std::filesystem::resize_file(path, offset, ec);
    if (ec) {
      throw Error(StrFormat("%s: cannot truncate torn journal tail at offset %zu: %s",
                            path.c_str(), offset, ec.message().c_str()));
    }
  }

  Journal journal;
  journal.path_ = path;
  journal.file_ = std::fopen(path.c_str(), "ab");
  if (journal.file_ == nullptr) {
    throw Error("Journal: cannot reopen " + path + " for append");
  }
  return journal;
}

void Journal::AppendChunk(std::uint32_t chunk_index, const std::uint32_t* values,
                          std::size_t value_count) {
  std::string record;
  record.reserve(kRecordOverhead + value_count * sizeof(std::uint32_t));
  AppendScalar(record, kRecordMagic);
  AppendScalar(record, chunk_index);
  AppendScalar(record, static_cast<std::uint32_t>(value_count));
  record.append(reinterpret_cast<const char*>(values),
                value_count * sizeof(std::uint32_t));
  AppendScalar(record, Crc32(record.data() + 4, record.size() - 4));
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    throw Error("Journal: append failure on " + path_);
  }
}

void RemoveJournal(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace flatnet::campaign
