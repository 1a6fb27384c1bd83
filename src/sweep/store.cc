#include "sweep/store.h"

#include "util/colstore.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet::sweep {
namespace {

using colstore::Append;
using colstore::AppendScalar;
using colstore::ReadScalar;

constexpr colstore::Format kFormat = {"FNSWEEP1", "FNSWEEPE", 1, "sweep"};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4;
constexpr std::size_t kFooterBytes = colstore::kFooterBytes;

std::string Serialize(const SweepTable& table) {
  std::string out;
  std::size_t body = 0;
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if (table.columns & (1u << c)) body += table.num_origins * sizeof(std::uint32_t);
  }
  out.reserve(kHeaderBytes + body + kFooterBytes);
  colstore::AppendMagicAndVersion(out, kFormat);
  AppendScalar(out, table.columns);
  AppendScalar(out, static_cast<std::uint64_t>(table.num_origins));
  AppendScalar(out, table.fingerprint);
  AppendScalar(out, std::uint32_t{0});  // reserved
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if ((table.columns & (1u << c)) == 0) continue;
    const auto& column = table.data[c];
    if (column.size() != table.num_origins) {
      throw InvalidArgument(StrFormat("WriteSweepStore: column %s has %zu values, expected %zu",
                                      ToString(static_cast<SweepColumn>(c)), column.size(),
                                      table.num_origins));
    }
    Append(out, column.data(), column.size() * sizeof(std::uint32_t));
  }
  colstore::AppendFooter(out, kFormat);
  return out;
}

}  // namespace

const std::vector<std::uint32_t>& SweepTable::Column(SweepColumn c) const {
  if (!HasColumn(c)) {
    throw InvalidArgument(StrFormat("SweepTable: column %s not present", ToString(c)));
  }
  return data[static_cast<std::size_t>(c)];
}

std::vector<std::uint32_t>& SweepTable::MutableColumn(SweepColumn c) {
  return data[static_cast<std::size_t>(c)];
}

void WriteSweepStore(const std::string& path, const SweepTable& table) {
  colstore::AtomicWriteFile(path, Serialize(table), "WriteSweepStore");
}

SweepStore SweepStore::Load(const std::string& path) {
  std::string bytes = colstore::ReadFileBytes(path, "SweepStore");
  colstore::CheckHeader(path, bytes, kFormat, kHeaderBytes + kFooterBytes);
  SweepTable table;
  table.columns = ReadScalar<std::uint32_t>(bytes, 12);
  table.num_origins = static_cast<std::size_t>(ReadScalar<std::uint64_t>(bytes, 16));
  table.fingerprint = ReadScalar<std::uint64_t>(bytes, 24);
  if (table.columns == 0 || (table.columns >> kNumSweepColumns) != 0) {
    throw Error(StrFormat("%s:12: invalid column bitmask 0x%x", path.c_str(), table.columns));
  }
  std::size_t present = 0;
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if (table.columns & (1u << c)) ++present;
  }
  std::size_t expected =
      kHeaderBytes + present * table.num_origins * sizeof(std::uint32_t) + kFooterBytes;
  if (bytes.size() != expected) {
    throw Error(StrFormat("%s:%zu: truncated or oversized sweep store (%zu bytes, header "
                          "implies %zu)",
                          path.c_str(), bytes.size(), bytes.size(), expected));
  }
  colstore::CheckFooter(path, bytes, kFormat);

  std::size_t offset = kHeaderBytes;
  for (std::size_t c = 0; c < kNumSweepColumns; ++c) {
    if ((table.columns & (1u << c)) == 0) continue;
    table.data[c].resize(table.num_origins);
    colstore::ReadColumn(bytes, offset, table.data[c]);
  }
  SweepStore store;
  store.table_ = std::move(table);
  return store;
}

void SweepStore::ValidateAgainst(const Internet& internet) const {
  if (table_.num_origins != internet.num_ases()) {
    throw Error(StrFormat("sweep store holds %zu origins but the topology has %zu ASes",
                          table_.num_origins, internet.num_ases()));
  }
  std::uint64_t expected = internet.fingerprint();
  if (table_.fingerprint != expected) {
    throw Error(StrFormat("sweep store fingerprint %016llx does not match topology %016llx "
                          "(results were computed on a different graph)",
                          static_cast<unsigned long long>(table_.fingerprint),
                          static_cast<unsigned long long>(expected)));
  }
}

}  // namespace flatnet::sweep
