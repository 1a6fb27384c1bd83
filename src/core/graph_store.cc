#include "core/graph_store.h"

#include <cstring>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/serialize.h"
#include "util/colstore.h"
#include "util/error.h"
#include "util/mmap_file.h"
#include "util/narrow.h"
#include "util/strings.h"

namespace flatnet {
namespace {

using colstore::Append;
using colstore::AppendScalar;
using colstore::ReadScalar;

constexpr colstore::Format kFormat = {"FNGRAPH1", "FNGRAPHE", 1, "graph"};
// magic + version + flags + num_ases + num_edges + fingerprint + sections
// + reserved.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8 + 4 + 4;
constexpr std::size_t kFingerprintOffset = 8 + 4 + 4 + 8 + 8;
constexpr std::size_t kNumSections = 10;
constexpr std::size_t kDescriptorBytes = kNumSections * 16;

const char* kSectionNames[kNumSections] = {
    "asn_of", "by_asn",     "slice", "entry_ids",    "tier1_mask",
    "tier2_mask", "types",  "users", "name_offsets", "name_blob",
};

struct Section {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

std::size_t MaskWords(std::size_t n) { return (n + 63) / 64; }

void PadTo8(std::string& out) {
  while (out.size() % 8 != 0) out.push_back('\0');
}

std::string Serialize(const Internet& internet) {
  const AsGraph& graph = internet.graph();
  std::size_t n = graph.num_ases();
  auto asn_of = graph.AsnColumn();
  auto by_asn = graph.ByAsnColumn();
  auto slice = graph.SliceColumn();
  auto entry_ids = graph.EntryIdsColumn();

  // Name blob + bounds.
  std::vector<std::uint32_t> name_offsets(n + 1, 0);
  std::string name_blob;
  for (AsId id = 0; id < n; ++id) {
    name_blob += internet.metadata().Get(id).name;
    name_offsets[id + 1] = CheckedNarrow32(name_blob.size(), "SaveInternetBinary name blob");
  }

  std::string out;
  colstore::AppendMagicAndVersion(out, kFormat);
  AppendScalar(out, std::uint32_t{0});  // flags, reserved
  AppendScalar(out, static_cast<std::uint64_t>(n));
  AppendScalar(out, static_cast<std::uint64_t>(graph.num_edges()));
  AppendScalar(out, internet.fingerprint());
  AppendScalar(out, static_cast<std::uint32_t>(kNumSections));
  AppendScalar(out, std::uint32_t{0});  // reserved

  // Descriptor table placeholder; patched once section offsets are known.
  std::size_t descriptor_at = out.size();
  out.append(kDescriptorBytes, '\0');

  Section sections[kNumSections];
  auto begin_section = [&](std::size_t s) {
    PadTo8(out);
    sections[s].offset = out.size();
  };
  auto end_section = [&](std::size_t s) { sections[s].bytes = out.size() - sections[s].offset; };
  auto write_span = [&](std::size_t s, const void* data, std::size_t bytes) {
    begin_section(s);
    Append(out, data, bytes);
    end_section(s);
  };

  write_span(0, asn_of.data(), asn_of.size_bytes());
  write_span(1, by_asn.data(), by_asn.size_bytes());
  write_span(2, slice.data(), slice.size_bytes());
  write_span(3, entry_ids.data(), entry_ids.size_bytes());
  for (std::size_t s = 4; s <= 5; ++s) {
    const Bitset& mask = s == 4 ? internet.tiers().tier1_mask : internet.tiers().tier2_mask;
    begin_section(s);
    for (std::size_t w = 0; w < MaskWords(n); ++w) {
      AppendScalar(out, w < mask.num_words() ? mask.Word(w) : std::uint64_t{0});
    }
    end_section(s);
  }
  begin_section(6);
  for (AsId id = 0; id < n; ++id) {
    AppendScalar(out, static_cast<std::uint8_t>(internet.metadata().Get(id).type));
  }
  end_section(6);
  begin_section(7);
  for (AsId id = 0; id < n; ++id) AppendScalar(out, internet.metadata().Get(id).users);
  end_section(7);
  write_span(8, name_offsets.data(), name_offsets.size() * sizeof(std::uint32_t));
  write_span(9, name_blob.data(), name_blob.size());

  for (std::size_t s = 0; s < kNumSections; ++s) {
    std::memcpy(out.data() + descriptor_at + s * 16, &sections[s].offset, 8);
    std::memcpy(out.data() + descriptor_at + s * 16 + 8, &sections[s].bytes, 8);
  }

  PadTo8(out);
  colstore::AppendFooter(out, kFormat);
  return out;
}

// Everything the loader derives from the header before touching sections.
struct StoreShape {
  std::size_t num_ases = 0;
  std::size_t num_edges = 0;
  std::uint64_t fingerprint = 0;
  Section sections[kNumSections];
};

// Validates header + descriptor table + section shapes against the file
// size; every failure names the file and the offending byte offset.
StoreShape CheckShape(const std::string& path, std::string_view bytes) {
  colstore::CheckHeader(path, bytes, kFormat,
                        kHeaderBytes + kDescriptorBytes + colstore::kFooterBytes);
  StoreShape shape;
  shape.num_ases = static_cast<std::size_t>(ReadScalar<std::uint64_t>(bytes, 16));
  shape.num_edges = static_cast<std::size_t>(ReadScalar<std::uint64_t>(bytes, 24));
  shape.fingerprint = ReadScalar<std::uint64_t>(bytes, kFingerprintOffset);
  std::uint32_t section_count = ReadScalar<std::uint32_t>(bytes, 40);
  if (section_count != kNumSections) {
    throw Error(StrFormat("%s:40: graph store has %u sections, expected %zu", path.c_str(),
                          section_count, kNumSections));
  }
  std::size_t n = shape.num_ases;
  // 32-bit CSR offsets on disk: reject headers whose counts could not have
  // been written by a correct writer before any size arithmetic overflows.
  if (shape.num_edges > 0x7fffffffull || n > 0xffffffffull) {
    throw Error(StrFormat("%s:16: header claims %zu ASes / %zu edges, beyond the 32-bit "
                          "CSR offsets the format stores",
                          path.c_str(), n, shape.num_edges));
  }

  std::uint64_t expected_bytes[kNumSections] = {
      4 * static_cast<std::uint64_t>(n),
      4 * static_cast<std::uint64_t>(n),
      4 * (3 * static_cast<std::uint64_t>(n) + 1),
      4 * (2 * static_cast<std::uint64_t>(shape.num_edges)),
      8 * static_cast<std::uint64_t>(MaskWords(n)),
      8 * static_cast<std::uint64_t>(MaskWords(n)),
      static_cast<std::uint64_t>(n),
      8 * static_cast<std::uint64_t>(n),
      4 * (static_cast<std::uint64_t>(n) + 1),
      0,  // name blob: any size, bounded below
  };
  std::size_t body_end = bytes.size() - colstore::kFooterBytes;
  std::uint64_t cursor = kHeaderBytes + kDescriptorBytes;
  for (std::size_t s = 0; s < kNumSections; ++s) {
    std::size_t at = kHeaderBytes + s * 16;
    shape.sections[s].offset = ReadScalar<std::uint64_t>(bytes, at);
    shape.sections[s].bytes = ReadScalar<std::uint64_t>(bytes, at + 8);
    const Section& sec = shape.sections[s];
    if (sec.offset % 8 != 0 || sec.offset < cursor || sec.offset > body_end ||
        sec.bytes > body_end - sec.offset) {
      throw Error(StrFormat("%s:%zu: section %s descriptor [%llu, +%llu) escapes the body "
                            "(valid range [%llu, %zu))",
                            path.c_str(), at, kSectionNames[s],
                            static_cast<unsigned long long>(sec.offset),
                            static_cast<unsigned long long>(sec.bytes),
                            static_cast<unsigned long long>(cursor), body_end));
    }
    if (s != 9 && sec.bytes != expected_bytes[s]) {
      throw Error(StrFormat("%s:%zu: section %s holds %llu bytes, header implies %llu",
                            path.c_str(), at + 8, kSectionNames[s],
                            static_cast<unsigned long long>(sec.bytes),
                            static_cast<unsigned long long>(expected_bytes[s])));
    }
    cursor = sec.offset + sec.bytes;
  }
  return shape;
}

template <typename T>
std::span<const T> SectionSpan(std::string_view bytes, const Section& sec) {
  return {reinterpret_cast<const T*>(bytes.data() + sec.offset), sec.bytes / sizeof(T)};
}

}  // namespace

void SaveInternetBinary(const Internet& internet, const std::string& path) {
  colstore::AtomicWriteFile(path, Serialize(internet), "SaveInternetBinary");
}

Internet LoadInternetBinary(const std::string& path) {
  auto mapped = std::make_shared<MappedFile>(path, "LoadInternetBinary");
  std::string_view bytes(mapped->data(), mapped->size());
  StoreShape shape = CheckShape(path, bytes);
  std::size_t n = shape.num_ases;

  // Cheap column checks before the CRC pass, so a corrupted field names
  // itself precisely; the CRC then covers everything else (including the
  // CSR columns the deep validation below re-checks structurally).
  auto types = SectionSpan<std::uint8_t>(bytes, shape.sections[6]);
  for (std::size_t id = 0; id < n; ++id) {
    if (types[id] > static_cast<std::uint8_t>(AsType::kCloud)) {
      throw Error(StrFormat("%s:%zu: AS %zu has invalid type byte %u", path.c_str(),
                            shape.sections[6].offset + id, id, types[id]));
    }
  }
  auto name_offsets = SectionSpan<std::uint32_t>(bytes, shape.sections[8]);
  for (std::size_t id = 0; id < n; ++id) {
    if (name_offsets[id] > name_offsets[id + 1]) {
      throw Error(StrFormat("%s:%zu: name bounds decrease at AS %zu", path.c_str(),
                            shape.sections[8].offset + id * 4, id));
    }
  }
  if (n > 0 && (name_offsets[0] != 0 || name_offsets[n] != shape.sections[9].bytes)) {
    throw Error(StrFormat("%s:%zu: name bounds span [%u, %u), blob holds %llu bytes",
                          path.c_str(), shape.sections[8].offset, name_offsets[0],
                          name_offsets[n],
                          static_cast<unsigned long long>(shape.sections[9].bytes)));
  }
  colstore::CheckFooter(path, bytes, kFormat);

  // The graph serves its columns straight from the mapping; the MappedFile
  // rides along as the keeper. FromColumns runs the full O(n + E)
  // structural validation.
  AsGraph graph = AsGraph::FromColumns(
      SectionSpan<Asn>(bytes, shape.sections[0]), SectionSpan<AsId>(bytes, shape.sections[1]),
      SectionSpan<std::uint32_t>(bytes, shape.sections[2]),
      SectionSpan<AsId>(bytes, shape.sections[3]), mapped, path);
  if (graph.num_edges() != shape.num_edges) {
    throw Error(StrFormat("%s:24: header claims %zu edges, adjacency holds %zu", path.c_str(),
                          shape.num_edges, graph.num_edges()));
  }

  TierSets tiers;
  for (std::size_t s = 4; s <= 5; ++s) {
    auto words = SectionSpan<std::uint64_t>(bytes, shape.sections[s]);
    Bitset& mask = s == 4 ? tiers.tier1_mask : tiers.tier2_mask;
    std::vector<AsId>& list = s == 4 ? tiers.tier1 : tiers.tier2;
    mask.Resize(n);
    for (std::size_t w = 0; w < words.size() && w < mask.num_words(); ++w) {
      mask.StoreWord(w, words[w]);
    }
    // Ascending-id membership lists, matching what LoadInternet rebuilds
    // from the text sidecar (SaveInternet writes rows in id order).
    mask.ForEachSet([&](std::size_t id) { list.push_back(static_cast<AsId>(id)); });
  }

  AsMetadata metadata(n);
  auto users = SectionSpan<double>(bytes, shape.sections[7]);
  const char* blob = bytes.data() + shape.sections[9].offset;
  for (AsId id = 0; id < n; ++id) {
    AsInfo& info = metadata.GetMutable(id);
    info.type = static_cast<AsType>(types[id]);
    info.users = users[id];
    info.name.assign(blob + name_offsets[id], name_offsets[id + 1] - name_offsets[id]);
  }

  // Constructing the Internet hashes the loaded columns; that hash must
  // reproduce the one the writer stored.
  Internet internet(std::move(graph), std::move(tiers), std::move(metadata));
  std::uint64_t actual = internet.fingerprint();
  if (actual != shape.fingerprint) {
    throw Error(StrFormat("%s:%zu: stored fingerprint %016llx does not match the loaded "
                          "topology %016llx",
                          path.c_str(), kFingerprintOffset,
                          static_cast<unsigned long long>(shape.fingerprint),
                          static_cast<unsigned long long>(actual)));
  }
  return internet;
}

std::uint64_t ReadGraphStoreFingerprint(const std::string& path) {
  MappedFile mapped(path, "ReadGraphStoreFingerprint");
  std::string_view bytes(mapped.data(), mapped.size());
  colstore::CheckHeader(path, bytes, kFormat,
                        kHeaderBytes + kDescriptorBytes + colstore::kFooterBytes);
  return ReadScalar<std::uint64_t>(bytes, kFingerprintOffset);
}

bool IsGraphStorePath(const std::string& path) {
  return path.size() >= 6 && path.compare(path.size() - 6, 6, ".graph") == 0;
}

Internet LoadInternetAuto(const std::string& path) {
  return IsGraphStorePath(path) ? LoadInternetBinary(path) : LoadInternet(path);
}

}  // namespace flatnet
