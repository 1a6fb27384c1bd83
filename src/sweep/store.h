// Persistent columnar result store for all-origins sweeps.
//
// A `.sweep` file holds one fixed-width u32 column per metric for every
// origin in a topology, bound to that topology by its fingerprint
// (core/fingerprint.h). Layout (native-endian):
//
//   header   magic "FNSWEEP1" (8) | version u32 | columns bitmask u32 |
//            num_origins u64 | fingerprint u64 | reserved u32
//   body     for each present column, ascending SweepColumn order:
//            u32[num_origins]
//   footer   crc32 u32 over all preceding bytes | end magic "FNSWEEPE" (8)
//
// Writes go to a pid-unique tmp sibling and rename into place, so readers
// never observe a torn store. Load() re-reads the whole file, verifies
// both magics, the version, the size implied by the header, and the CRC;
// every failure names the file and the byte offset of the problem.
// Lookups after load are O(1) array indexing.
#ifndef FLATNET_SWEEP_STORE_H_
#define FLATNET_SWEEP_STORE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/internet.h"
#include "util/names.h"

namespace flatnet::sweep {

// Column order is the on-disk order; values are appended, never reordered.
enum class SweepColumn : std::uint8_t {
  kProviderFree = 0,   // reach(o, I \ Po)
  kTier1Free = 1,      // reach(o, I \ Po \ T1)
  kHierarchyFree = 2,  // reach(o, I \ Po \ T1 \ T2)
  kPathOneHop = 3,     // Fig 13 path-length bins (unweighted counts)
  kPathTwoHops = 4,
  kPathThreePlus = 5,
};

inline constexpr std::size_t kNumSweepColumns = 6;

constexpr std::uint32_t ColumnBit(SweepColumn c) {
  return 1u << static_cast<std::uint32_t>(c);
}

// The three reachability columns (the default sweep).
inline constexpr std::uint32_t kReachColumns = ColumnBit(SweepColumn::kProviderFree) |
                                               ColumnBit(SweepColumn::kTier1Free) |
                                               ColumnBit(SweepColumn::kHierarchyFree);
// The path-length bin columns (opt-in; an order of magnitude slower).
inline constexpr std::uint32_t kPathColumns = ColumnBit(SweepColumn::kPathOneHop) |
                                              ColumnBit(SweepColumn::kPathTwoHops) |
                                              ColumnBit(SweepColumn::kPathThreePlus);

// The first three double as the serve protocol's reach `mode` and `top`
// `metric` spellings.
inline constexpr NameTable<SweepColumn, kNumSweepColumns> kSweepColumnNames{
    {"provider_free", "tier1_free", "hierarchy_free", "path_one_hop", "path_two_hops",
     "path_three_plus"}};
inline const char* ToString(SweepColumn c) { return kSweepColumnNames.Name(c); }

// In-memory sweep result: one dense u32 vector per present column.
struct SweepTable {
  std::uint64_t fingerprint = 0;
  std::uint32_t columns = 0;  // bitmask of present columns
  std::size_t num_origins = 0;
  std::array<std::vector<std::uint32_t>, kNumSweepColumns> data;

  bool HasColumn(SweepColumn c) const { return (columns & ColumnBit(c)) != 0; }
  // Throws InvalidArgument when the column is absent.
  const std::vector<std::uint32_t>& Column(SweepColumn c) const;
  std::vector<std::uint32_t>& MutableColumn(SweepColumn c);
};

// Writes `table` to `path` via pid-unique tmp + rename. Throws Error on
// I/O failure (the tmp file is cleaned up).
void WriteSweepStore(const std::string& path, const SweepTable& table);

// A loaded, validated store. Copyable; lookups are plain array reads.
class SweepStore {
 public:
  SweepStore() = default;

  // Throws Error naming `path` and the byte offset on any structural
  // problem: short file, bad magic, unknown version, size mismatch
  // against the header, CRC mismatch, bad end magic.
  static SweepStore Load(const std::string& path);

  // Throws Error when the store's fingerprint or origin count does not
  // match `internet` (results from another topology must never be served).
  void ValidateAgainst(const Internet& internet) const;

  const SweepTable& table() const { return table_; }
  std::uint64_t fingerprint() const { return table_.fingerprint; }
  std::size_t num_origins() const { return table_.num_origins; }
  std::uint32_t columns() const { return table_.columns; }
  bool HasColumn(SweepColumn c) const { return table_.HasColumn(c); }

  // O(1); the column must be present and origin < num_origins().
  std::uint32_t Value(SweepColumn c, AsId origin) const {
    return table_.Column(c)[origin];
  }

 private:
  SweepTable table_;
};

}  // namespace flatnet::sweep

#endif  // FLATNET_SWEEP_STORE_H_
