// Persistent columnar result store for failure-cascade campaigns.
//
// A `.fail` file holds the per-trial damage metrics for every cell of a
// campaign — one cell per (origin, scenario, severity, seed, trials)
// tuple — bound to the topology AND to the exact campaign by two FNV-1a
// fingerprints. Layout (native-endian):
//
//   header   magic "FNFAIL01" (8) | version u32 | flags u32 |
//            num_cells u32 | reserved u32 | topology fingerprint u64 |
//            campaign fingerprint u64
//   cells    num_cells fixed-width descriptors:
//            origin u32 | scenario u32 | severity u32 | trials u32 |
//            seed u64 | collected u32 | reserved u32 | attempts u64 |
//            baseline u64
//   body     for each cell in descriptor order:
//            loss_ases f64[collected], disconnected f64[collected],
//            then loss_users f64[collected] when flags bit 0 is set
//   footer   crc32 u32 over all preceding bytes | end magic "FNFAILE1" (8)
//
// Same envelope discipline as the `.sweep`/`.leak` stores (util/colstore):
// pid-unique tmp + atomic rename on write; Load() verifies magics,
// version, flags, descriptor bounds, and per-descriptor enum ranges
// before the CRC, so a corrupted field names itself, and every failure
// names the file and the byte offset.
#ifndef FLATNET_FAILSIM_STORE_H_
#define FLATNET_FAILSIM_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "core/internet.h"
#include "util/names.h"

namespace flatnet::failsim {

// What each trial of a cell knocks out of the topology.
enum class FailScenario : std::uint32_t {
  // Trial t fails one AS drawn without replacement (never the origin).
  kSingleAs = 0,
  // Trial t fails the t-th Tier-1 of a seeded permutation (origin
  // excluded) — every Tier-1 outage individually, in random order.
  kTier1 = 1,
  // Trial t fails the top-(t+1) hegemony ASes for the cell origin — the
  // deepening cascade along the origin's dependency ranking.
  kHegemonyCascade = 2,
  // Trial t fails `severity` distinct links drawn from the trial's slice
  // of the cell seed.
  kLinkSet = 3,
};
inline constexpr std::size_t kNumFailScenarios = 4;

// flatnet_failsim's --scenarios spellings and the serve protocol's
// failure `scenario`.
inline constexpr NameTable<FailScenario, kNumFailScenarios> kFailScenarioNames{
    {"single_as", "tier1", "hegemony_cascade", "link_set"}};
inline const char* ToString(FailScenario scenario) { return kFailScenarioNames.Name(scenario); }

// One campaign cell: everything that determines its trial series.
struct FailCellSpec {
  AsId origin = 0;
  FailScenario scenario = FailScenario::kSingleAs;
  // Links failed per trial; kLinkSet only (must be >= 1 there, 0 otherwise).
  std::uint32_t severity = 0;
  std::uint64_t seed = 0;
  std::uint32_t trials = 0;  // requested per cell

  bool operator==(const FailCellSpec& other) const = default;
};

struct FailCellResult {
  FailCellSpec spec;
  std::uint64_t attempts = 0;  // knockout draws consumed during pre-draw
  std::uint64_t baseline = 0;  // intact destinations reachable from origin
  // Per collected trial, in draw order:
  std::vector<double> loss_ases;     // collateral loss fraction of baseline
                                     // (knocked-out ASes excluded)
  std::vector<double> disconnected;  // absolute ASes cut off (knocked incl.)
  std::vector<double> loss_users;    // user-weighted collateral fraction;
                                     // present when the table has_users
  // Engine output only, never persisted: the knockout order. For
  // kSingleAs/kTier1, targets[t] is trial t's failed AS; for
  // kHegemonyCascade, trial t fails targets[0..t]; empty for kLinkSet.
  std::vector<AsId> targets;

  std::size_t collected() const { return loss_ases.size(); }
  bool UnderCollected() const { return collected() < spec.trials; }
};

// In-memory campaign result, serializable to a `.fail` store.
struct FailTable {
  std::uint64_t fingerprint = 0;           // topology
  std::uint64_t campaign_fingerprint = 0;  // topology + every cell spec
  bool has_users = false;                  // user-weighted column present
  std::vector<FailCellResult> cells;
};

// Writes `table` to `path` via pid-unique tmp + rename. Throws Error on
// I/O failure and InvalidArgument on an inconsistent table (column
// length mismatch).
void WriteFailStore(const std::string& path, const FailTable& table);

// A loaded, validated store. Copyable; lookups are plain array reads.
class FailStore {
 public:
  FailStore() = default;

  // Throws Error naming `path` and the byte offset on any structural
  // problem.
  static FailStore Load(const std::string& path);

  // Throws Error when the store's topology fingerprint does not match
  // `internet`.
  void ValidateAgainst(const Internet& internet) const;

  const FailTable& table() const { return table_; }
  std::uint64_t fingerprint() const { return table_.fingerprint; }
  std::uint64_t campaign_fingerprint() const { return table_.campaign_fingerprint; }
  bool has_users() const { return table_.has_users; }
  std::size_t num_cells() const { return table_.cells.size(); }
  const FailCellResult& cell(std::size_t i) const { return table_.cells[i]; }

  // Index of the first cell matching (origin, scenario), or npos when
  // absent. Linear scan — campaigns hold tens of cells.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t FindCell(AsId origin, FailScenario scenario) const;

 private:
  FailTable table_;
};

}  // namespace flatnet::failsim

#endif  // FLATNET_FAILSIM_STORE_H_
