#include "failsim/store.h"

#include "util/colstore.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::failsim {
namespace {

using colstore::Append;
using colstore::AppendScalar;
using colstore::ReadScalar;

constexpr colstore::Format kFormat = {"FNFAIL01", "FNFAILE1", 1, "fail"};
constexpr std::uint32_t kFlagHasUsers = 1u << 0;
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 4 + 4 + 8 + 8;
constexpr std::size_t kCellDescBytes = 4 + 4 + 4 + 4 + 8 + 4 + 4 + 8 + 8;
constexpr std::size_t kFooterBytes = colstore::kFooterBytes;

std::string Serialize(const FailTable& table) {
  std::size_t total_trials = 0;
  for (const FailCellResult& cell : table.cells) {
    if (cell.disconnected.size() != cell.collected()) {
      throw InvalidArgument(StrFormat(
          "WriteFailStore: cell for origin %u has %zu disconnected values, expected %zu",
          cell.spec.origin, cell.disconnected.size(), cell.collected()));
    }
    std::size_t users_expected = table.has_users ? cell.collected() : 0;
    if (cell.loss_users.size() != users_expected) {
      throw InvalidArgument(StrFormat(
          "WriteFailStore: cell for origin %u has %zu user losses, expected %zu",
          cell.spec.origin, cell.loss_users.size(), users_expected));
    }
    total_trials += cell.collected();
  }
  std::size_t columns = table.has_users ? 3 : 2;
  std::string out;
  out.reserve(kHeaderBytes + table.cells.size() * kCellDescBytes +
              columns * total_trials * sizeof(double) + kFooterBytes);
  colstore::AppendMagicAndVersion(out, kFormat);
  AppendScalar(out, table.has_users ? kFlagHasUsers : std::uint32_t{0});
  AppendScalar(out, static_cast<std::uint32_t>(table.cells.size()));
  AppendScalar(out, std::uint32_t{0});  // reserved
  AppendScalar(out, table.fingerprint);
  AppendScalar(out, table.campaign_fingerprint);
  for (const FailCellResult& cell : table.cells) {
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.origin));
    AppendScalar(out, static_cast<std::uint32_t>(cell.spec.scenario));
    AppendScalar(out, cell.spec.severity);
    AppendScalar(out, cell.spec.trials);
    AppendScalar(out, cell.spec.seed);
    AppendScalar(out, static_cast<std::uint32_t>(cell.collected()));
    AppendScalar(out, std::uint32_t{0});  // reserved
    AppendScalar(out, cell.attempts);
    AppendScalar(out, cell.baseline);
  }
  for (const FailCellResult& cell : table.cells) {
    Append(out, cell.loss_ases.data(), cell.loss_ases.size() * sizeof(double));
    Append(out, cell.disconnected.data(), cell.disconnected.size() * sizeof(double));
    if (table.has_users) {
      Append(out, cell.loss_users.data(), cell.loss_users.size() * sizeof(double));
    }
  }
  colstore::AppendFooter(out, kFormat);
  return out;
}

}  // namespace

void WriteFailStore(const std::string& path, const FailTable& table) {
  colstore::AtomicWriteFile(path, Serialize(table), "WriteFailStore");
}

FailStore FailStore::Load(const std::string& path) {
  std::string bytes = colstore::ReadFileBytes(path, "FailStore");
  colstore::CheckHeader(path, bytes, kFormat, kHeaderBytes + kFooterBytes);
  std::uint32_t flags = ReadScalar<std::uint32_t>(bytes, 12);
  if ((flags & ~kFlagHasUsers) != 0) {
    throw Error(StrFormat("%s:12: unknown flags 0x%x", path.c_str(), flags));
  }
  std::uint32_t num_cells = ReadScalar<std::uint32_t>(bytes, 16);
  FailTable table;
  table.has_users = (flags & kFlagHasUsers) != 0;
  table.fingerprint = ReadScalar<std::uint64_t>(bytes, 24);
  table.campaign_fingerprint = ReadScalar<std::uint64_t>(bytes, 32);

  std::size_t descs_end = kHeaderBytes + static_cast<std::size_t>(num_cells) * kCellDescBytes;
  if (bytes.size() < descs_end + kFooterBytes) {
    throw Error(StrFormat("%s:%zu: truncated fail store (%zu bytes, %u cell descriptors "
                          "need %zu)",
                          path.c_str(), kHeaderBytes, bytes.size(), num_cells,
                          descs_end + kFooterBytes));
  }

  std::size_t columns = table.has_users ? 3 : 2;
  std::size_t total_trials = 0;
  table.cells.resize(num_cells);
  for (std::uint32_t i = 0; i < num_cells; ++i) {
    std::size_t off = kHeaderBytes + static_cast<std::size_t>(i) * kCellDescBytes;
    FailCellResult& cell = table.cells[i];
    cell.spec.origin = ReadScalar<std::uint32_t>(bytes, off);
    std::uint32_t scenario = ReadScalar<std::uint32_t>(bytes, off + 4);
    if (scenario >= kNumFailScenarios) {
      throw Error(StrFormat("%s:%zu: cell %u has invalid scenario %u", path.c_str(), off + 4,
                            i, scenario));
    }
    cell.spec.scenario = static_cast<FailScenario>(scenario);
    cell.spec.severity = ReadScalar<std::uint32_t>(bytes, off + 8);
    cell.spec.trials = ReadScalar<std::uint32_t>(bytes, off + 12);
    cell.spec.seed = ReadScalar<std::uint64_t>(bytes, off + 16);
    std::uint32_t collected = ReadScalar<std::uint32_t>(bytes, off + 24);
    cell.attempts = ReadScalar<std::uint64_t>(bytes, off + 32);
    cell.baseline = ReadScalar<std::uint64_t>(bytes, off + 40);
    cell.loss_ases.resize(collected);
    cell.disconnected.resize(collected);
    if (table.has_users) cell.loss_users.resize(collected);
    total_trials += collected;
  }

  std::size_t expected = descs_end + columns * total_trials * sizeof(double) + kFooterBytes;
  if (bytes.size() != expected) {
    throw Error(StrFormat("%s:%zu: truncated or oversized fail store (%zu bytes, descriptors "
                          "imply %zu)",
                          path.c_str(), descs_end, bytes.size(), expected));
  }
  colstore::CheckFooter(path, bytes, kFormat);

  std::size_t offset = descs_end;
  for (FailCellResult& cell : table.cells) {
    colstore::ReadColumn(bytes, offset, cell.loss_ases);
    colstore::ReadColumn(bytes, offset, cell.disconnected);
    if (table.has_users) colstore::ReadColumn(bytes, offset, cell.loss_users);
  }
  FailStore store;
  store.table_ = std::move(table);
  return store;
}

void FailStore::ValidateAgainst(const Internet& internet) const {
  std::uint64_t expected = internet.fingerprint();
  if (table_.fingerprint != expected) {
    throw Error(StrFormat("fail store fingerprint %016llx does not match topology %016llx "
                          "(results were computed on a different graph)",
                          static_cast<unsigned long long>(table_.fingerprint),
                          static_cast<unsigned long long>(expected)));
  }
}

std::size_t FailStore::FindCell(AsId origin, FailScenario scenario) const {
  for (std::size_t i = 0; i < table_.cells.size(); ++i) {
    const FailCellSpec& spec = table_.cells[i].spec;
    if (spec.origin == origin && spec.scenario == scenario) return i;
  }
  return npos;
}

}  // namespace flatnet::failsim
