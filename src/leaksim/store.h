// Persistent columnar result store for leak-resilience campaigns.
//
// A `.leak` file holds the per-trial detour fractions for every cell of a
// campaign — one cell per (victim, scenario, lock mode, model, seed,
// trials) tuple — bound to the topology by its fingerprint
// (core/fingerprint.h). Layout (native-endian):
//
//   header   magic "FNLEAK01" (8) | version u32 | flags u32 |
//            num_cells u32 | reserved u32 | fingerprint u64
//   cells    num_cells fixed-width descriptors:
//            victim u32 | scenario u32 | lock_mode u32 | model u32 |
//            seed u64 | trials_requested u32 | collected u32 | attempts u64
//   body     for each cell in descriptor order:
//            fraction_ases f64[collected],
//            then fraction_users f64[collected] when flags bit 0 is set
//   footer   crc32 u32 over all preceding bytes | end magic "FNLEAKE1" (8)
//
// Fixed-width descriptors plus per-cell prefix sums make cell lookup O(1)
// after load. Writes go to a pid-unique tmp sibling and rename into
// place; Load() verifies both magics, the version, enum ranges, the size
// implied by the descriptors, and the CRC, and every failure names the
// file and the byte offset of the problem.
#ifndef FLATNET_LEAKSIM_STORE_H_
#define FLATNET_LEAKSIM_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/leak.h"
#include "core/internet.h"
#include "core/leak_scenarios.h"

namespace flatnet::leaksim {

// One campaign cell: everything that determines its trial series. The
// engine replays RunLeakScenario's draw loop from `seed`, so a cell's
// results are identical to the serial path for the same tuple.
struct LeakCellSpec {
  AsId victim = 0;
  LeakScenario scenario = LeakScenario::kAnnounceAll;
  PeerLockMode lock_mode = PeerLockMode::kFull;
  LeakModel model = LeakModel::kReannounce;
  std::uint64_t seed = 0;
  std::uint32_t trials = 0;  // requested per cell

  bool operator==(const LeakCellSpec& other) const = default;
};

struct LeakCellResult {
  LeakCellSpec spec;
  std::uint64_t attempts = 0;           // leaker draws consumed
  std::vector<double> fraction_ases;    // collected trials, draw order
  std::vector<double> fraction_users;   // present when the table has_users

  std::size_t collected() const { return fraction_ases.size(); }
  bool UnderCollected() const { return collected() < spec.trials; }
};

// In-memory campaign result, serializable to a `.leak` store.
struct LeakTable {
  std::uint64_t fingerprint = 0;
  bool has_users = false;  // user-weighted fractions present in every cell
  std::vector<LeakCellResult> cells;
};

// Writes `table` to `path` via pid-unique tmp + rename. Throws Error on
// I/O failure (the tmp file is cleaned up) and InvalidArgument on an
// inconsistent table (user column length mismatch).
void WriteLeakStore(const std::string& path, const LeakTable& table);

// A loaded, validated store. Copyable; lookups are plain array reads.
class LeakStore {
 public:
  LeakStore() = default;

  // Throws Error naming `path` and the byte offset on any structural
  // problem: short file, bad magic, unknown version, out-of-range enum,
  // size mismatch against the descriptors, CRC mismatch, bad end magic.
  static LeakStore Load(const std::string& path);

  // Throws Error when the store's fingerprint does not match `internet`
  // (results from another topology must never be served).
  void ValidateAgainst(const Internet& internet) const;

  const LeakTable& table() const { return table_; }
  std::uint64_t fingerprint() const { return table_.fingerprint; }
  bool has_users() const { return table_.has_users; }
  std::size_t num_cells() const { return table_.cells.size(); }
  const LeakCellResult& cell(std::size_t i) const { return table_.cells[i]; }

  // Index of the first cell matching (victim, scenario, lock_mode, model),
  // or npos when absent. Linear scan — campaigns hold tens of cells.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t FindCell(AsId victim, LeakScenario scenario, PeerLockMode lock_mode,
                       LeakModel model) const;

 private:
  LeakTable table_;
};

}  // namespace flatnet::leaksim

#endif  // FLATNET_LEAKSIM_STORE_H_
