#include "leaksim/store.h"

#include "util/colstore.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::leaksim {
namespace {

using colstore::Append;
using colstore::AppendScalar;
using colstore::ReadScalar;

constexpr colstore::Format kFormat = {"FNLEAK01", "FNLEAKE1", 1, "leak"};
constexpr std::uint32_t kFlagHasUsers = 1u << 0;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4 + 8;
constexpr std::size_t kCellDescBytes = 4 + 4 + 4 + 4 + 8 + 4 + 4 + 8;
constexpr std::size_t kFooterBytes = colstore::kFooterBytes;

std::string Serialize(const LeakTable& table) {
  std::size_t total_trials = 0;
  for (const LeakCellResult& cell : table.cells) {
    std::size_t users_expected = table.has_users ? cell.collected() : 0;
    if (cell.fraction_users.size() != users_expected) {
      throw InvalidArgument(StrFormat(
          "WriteLeakStore: cell for victim %u has %zu user fractions, expected %zu",
          cell.spec.victim, cell.fraction_users.size(), users_expected));
    }
    total_trials += cell.collected();
  }
  std::size_t columns = table.has_users ? 2 : 1;
  std::string out;
  out.reserve(kHeaderBytes + table.cells.size() * kCellDescBytes +
              columns * total_trials * sizeof(double) + kFooterBytes);
  colstore::AppendMagicAndVersion(out, kFormat);
  AppendScalar(out, table.has_users ? kFlagHasUsers : std::uint32_t{0});
  AppendScalar(out, static_cast<std::uint32_t>(table.cells.size()));
  AppendScalar(out, std::uint32_t{0});  // reserved
  AppendScalar(out, table.fingerprint);
  for (const LeakCellResult& cell : table.cells) {
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.victim));
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.scenario));
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.lock_mode));
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.model));
    AppendScalar(out, cell.spec.seed);
    AppendScalar(out, cell.spec.trials);
    AppendScalar(out, static_cast<std::uint32_t>(cell.collected()));
    AppendScalar(out, cell.attempts);
  }
  for (const LeakCellResult& cell : table.cells) {
    Append(out, cell.fraction_ases.data(), cell.fraction_ases.size() * sizeof(double));
    if (table.has_users) {
      Append(out, cell.fraction_users.data(), cell.fraction_users.size() * sizeof(double));
    }
  }
  colstore::AppendFooter(out, kFormat);
  return out;
}

}  // namespace

void WriteLeakStore(const std::string& path, const LeakTable& table) {
  colstore::AtomicWriteFile(path, Serialize(table), "WriteLeakStore");
}

LeakStore LeakStore::Load(const std::string& path) {
  std::string bytes = colstore::ReadFileBytes(path, "LeakStore");
  colstore::CheckHeader(path, bytes, kFormat, kHeaderBytes + kFooterBytes);
  std::uint32_t flags = ReadScalar<std::uint32_t>(bytes, 12);
  if ((flags & ~kFlagHasUsers) != 0) {
    throw Error(StrFormat("%s:12: unknown flags 0x%x", path.c_str(), flags));
  }
  std::uint32_t num_cells = ReadScalar<std::uint32_t>(bytes, 16);
  LeakTable table;
  table.has_users = (flags & kFlagHasUsers) != 0;
  table.fingerprint = ReadScalar<std::uint64_t>(bytes, 24);

  std::size_t descs_end = kHeaderBytes + static_cast<std::size_t>(num_cells) * kCellDescBytes;
  if (bytes.size() < descs_end + kFooterBytes) {
    throw Error(StrFormat("%s:%zu: truncated leak store (%zu bytes, %u cell descriptors "
                          "need %zu)",
                          path.c_str(), kHeaderBytes, bytes.size(), num_cells,
                          descs_end + kFooterBytes));
  }

  std::size_t columns = table.has_users ? 2 : 1;
  std::size_t total_trials = 0;
  table.cells.resize(num_cells);
  for (std::uint32_t i = 0; i < num_cells; ++i) {
    std::size_t off = kHeaderBytes + static_cast<std::size_t>(i) * kCellDescBytes;
    LeakCellResult& cell = table.cells[i];
    cell.spec.victim = ReadScalar<std::uint32_t>(bytes, off);
    std::uint32_t scenario = ReadScalar<std::uint32_t>(bytes, off + 4);
    if (scenario >= kNumLeakScenarios) {
      throw Error(StrFormat("%s:%zu: cell %u has invalid scenario %u", path.c_str(), off + 4,
                            i, scenario));
    }
    cell.spec.scenario = static_cast<LeakScenario>(scenario);
    std::uint32_t lock_mode = ReadScalar<std::uint32_t>(bytes, off + 8);
    if (lock_mode > static_cast<std::uint32_t>(PeerLockMode::kDirectOnly)) {
      throw Error(StrFormat("%s:%zu: cell %u has invalid lock mode %u", path.c_str(), off + 8,
                            i, lock_mode));
    }
    cell.spec.lock_mode = static_cast<PeerLockMode>(lock_mode);
    std::uint32_t model = ReadScalar<std::uint32_t>(bytes, off + 12);
    if (model > static_cast<std::uint32_t>(LeakModel::kOriginate)) {
      throw Error(StrFormat("%s:%zu: cell %u has invalid leak model %u", path.c_str(),
                            off + 12, i, model));
    }
    cell.spec.model = static_cast<LeakModel>(model);
    cell.spec.seed = ReadScalar<std::uint64_t>(bytes, off + 16);
    cell.spec.trials = ReadScalar<std::uint32_t>(bytes, off + 24);
    std::uint32_t collected = ReadScalar<std::uint32_t>(bytes, off + 28);
    cell.attempts = ReadScalar<std::uint64_t>(bytes, off + 32);
    cell.fraction_ases.resize(collected);
    if (table.has_users) cell.fraction_users.resize(collected);
    total_trials += collected;
  }

  std::size_t expected = descs_end + columns * total_trials * sizeof(double) + kFooterBytes;
  if (bytes.size() != expected) {
    throw Error(StrFormat("%s:%zu: truncated or oversized leak store (%zu bytes, descriptors "
                          "imply %zu)",
                          path.c_str(), descs_end, bytes.size(), expected));
  }
  colstore::CheckFooter(path, bytes, kFormat);

  std::size_t offset = descs_end;
  for (LeakCellResult& cell : table.cells) {
    colstore::ReadColumn(bytes, offset, cell.fraction_ases);
    if (table.has_users) colstore::ReadColumn(bytes, offset, cell.fraction_users);
  }
  LeakStore store;
  store.table_ = std::move(table);
  return store;
}

void LeakStore::ValidateAgainst(const Internet& internet) const {
  std::uint64_t expected = internet.fingerprint();
  if (table_.fingerprint != expected) {
    throw Error(StrFormat("leak store fingerprint %016llx does not match topology %016llx "
                          "(results were computed on a different graph)",
                          static_cast<unsigned long long>(table_.fingerprint),
                          static_cast<unsigned long long>(expected)));
  }
}

std::size_t LeakStore::FindCell(AsId victim, LeakScenario scenario, PeerLockMode lock_mode,
                                LeakModel model) const {
  for (std::size_t i = 0; i < table_.cells.size(); ++i) {
    const LeakCellSpec& spec = table_.cells[i].spec;
    if (spec.victim == victim && spec.scenario == scenario && spec.lock_mode == lock_mode &&
        spec.model == model) {
      return i;
    }
  }
  return npos;
}

}  // namespace flatnet::leaksim
