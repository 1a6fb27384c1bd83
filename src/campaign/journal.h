// Append-only checkpoint journal for chunked campaign runs.
//
// While a campaign runs, every completed chunk of units (sweep origins,
// leak or failure trials) is appended as one self-checking record; a run
// killed at any instant (SIGTERM, SIGKILL, power loss of the process —
// page cache survives) can be resumed from the last durable record. The
// format is frozen: journals written by earlier binaries must keep
// resuming. Layout (native-endian):
//
//   header   magic "FNSWPJ01" (8) | version u32 | columns u32 |
//            num_units u64 | fingerprint u64 | chunk_size u32 |
//            crc32 of the preceding header bytes u32
//   records  { magic u32 | chunk_index u32 | value_count u32 |
//              values u32[value_count] | crc32 u32 } ...
//
// A record's values are the chunk's payload for units
// [chunk_index*chunk_size, min(num_units, (chunk_index+1)*chunk_size)),
// laid out by the engine that wrote it; `columns` is that engine's schema
// tag.
//
// Recovery scans forward and stops at the first incomplete or corrupt
// record — a torn tail from a mid-write kill loses only that chunk — then
// truncates the tail so appends continue from a clean boundary. A header
// that does not match the current inputs/schema is an error, never a
// silent restart: resuming against the wrong inputs must be loud.
#ifndef FLATNET_CAMPAIGN_JOURNAL_H_
#define FLATNET_CAMPAIGN_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace flatnet::campaign {

// Everything a journal is keyed on; a resume must match all of it.
struct JournalMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_units = 0;
  std::uint32_t columns = 0;
  std::uint32_t chunk_size = 0;
};

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Starts a fresh journal at `path` (truncating any previous one).
  static Journal Create(const std::string& path, const JournalMeta& meta);

  // Resumes from an existing journal: validates the header against
  // `meta` (throws Error naming the path on any mismatch), appends every
  // intact record to `chunks` as (chunk_index, values), truncates a torn
  // tail, and returns a journal positioned for further appends.
  static Journal Recover(
      const std::string& path, const JournalMeta& meta,
      std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>>* chunks);

  // Appends one completed chunk and flushes it to the OS, so the record
  // survives a SIGKILL of this process. Not thread-safe; callers hold a
  // lock.
  void AppendChunk(std::uint32_t chunk_index, const std::uint32_t* values,
                   std::size_t value_count);

  // Closes the handle without deleting the file (keep for later resume).
  void Close();

  bool is_open() const { return file_ != nullptr; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

// Removes the journal of a run whose store has been published. Best
// effort: a journal left behind only costs disk space.
void RemoveJournal(const std::string& path);

}  // namespace flatnet::campaign

#endif  // FLATNET_CAMPAIGN_JOURNAL_H_
