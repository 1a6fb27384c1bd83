#include "core/serialize.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "asgraph/caida.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatnet {
namespace {

std::string RelPath(const std::string& stem) { return stem + ".as-rel.txt"; }
std::string MetaPath(const std::string& stem) { return stem + ".meta.tsv"; }

AsType TypeFromString(std::string_view s) {
  if (s == "transit") return AsType::kTransit;
  if (s == "access") return AsType::kAccess;
  if (s == "content") return AsType::kContent;
  if (s == "cloud") return AsType::kCloud;
  if (s == "enterprise") return AsType::kEnterprise;
  throw ParseError("unknown AS type '" + std::string(s) + "'");
}

void WriteFiles(const Internet& internet, const std::string& stem) {
  {
    std::ofstream out(RelPath(stem));
    if (!out) throw Error("SaveInternet: cannot write " + RelPath(stem));
    WriteCaidaRelationships(internet.graph(), out);
    if (!out) throw Error("SaveInternet: write failure on " + RelPath(stem));
  }
  std::ofstream out(MetaPath(stem));
  if (!out) throw Error("SaveInternet: cannot write " + MetaPath(stem));
  out << "# asn\tname\ttype\tusers\ttier\n";
  for (AsId id = 0; id < internet.num_ases(); ++id) {
    const AsInfo& info = internet.metadata().Get(id);
    int tier = internet.tiers().tier1_mask.Test(id)   ? 1
               : internet.tiers().tier2_mask.Test(id) ? 2
                                                      : 0;
    out << internet.graph().AsnOf(id) << '\t' << info.name << '\t' << ToString(info.type)
        << '\t' << StrFormat("%.6g", info.users) << '\t' << tier << '\n';
  }
  out.flush();
  if (!out) throw Error("SaveInternet: write failure on " + MetaPath(stem));
}

}  // namespace

void SaveInternet(const Internet& internet, const std::string& stem) {
  // Atomic publish: both files are written to a pid-unique tmp sibling and
  // renamed into place, so concurrent writers of one stem can never
  // co-author or observe a half-written file. rename(2) within a directory
  // replaces atomically; a reader can still catch a stale rel/meta pairing
  // between the two renames.
  std::string tmp_stem = StrFormat("%s.tmp%d", stem.c_str(), static_cast<int>(::getpid()));
  try {
    WriteFiles(internet, tmp_stem);
    for (const char* suffix : {".meta.tsv", ".as-rel.txt"}) {
      std::filesystem::rename(tmp_stem + suffix, stem + suffix);
    }
  } catch (const std::filesystem::filesystem_error& e) {
    std::error_code ec;
    std::filesystem::remove(RelPath(tmp_stem), ec);
    std::filesystem::remove(MetaPath(tmp_stem), ec);
    throw Error(StrFormat("SaveInternet: publish to %s failed: %s", stem.c_str(), e.what()));
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(RelPath(tmp_stem), ec);
    std::filesystem::remove(MetaPath(tmp_stem), ec);
    throw;
  }
}

Internet LoadInternet(const std::string& stem) {
  AsGraph graph = LoadCaidaFile(RelPath(stem));

  const std::string meta_path = MetaPath(stem);
  std::ifstream in(meta_path);
  if (!in) throw Error("LoadInternet: cannot open " + meta_path);
  AsMetadata metadata(graph.num_ases());
  std::vector<Asn> tier1;
  std::vector<Asn> tier2;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = Trim(line);
    if (view.empty() || view.front() == '#') continue;
    auto fields = Split(view, '\t');
    if (fields.size() != 5) {
      throw ParseError(StrFormat("%s:%zu: expected 5 tab-separated fields, got %zu",
                                 meta_path.c_str(), line_number, fields.size()));
    }
    auto asn = ParseU64(fields[0]);
    auto users = ParseDouble(fields[3]);
    auto tier = ParseU64(fields[4]);
    if (!asn || !users || !tier || *tier > 2) {
      throw ParseError(StrFormat("%s:%zu: malformed record '%s'", meta_path.c_str(),
                                 line_number, std::string(view).c_str()));
    }
    auto id = graph.IdOf(static_cast<Asn>(*asn));
    if (!id) {
      // Metadata for an AS absent from the graph: isolated nodes are not
      // representable in the CAIDA edge format; skip them.
      continue;
    }
    AsInfo& info = metadata.GetMutable(*id);
    info.name = std::string(fields[1]);
    try {
      info.type = TypeFromString(fields[2]);
    } catch (const ParseError& e) {
      throw ParseError(
          StrFormat("%s:%zu: %s", meta_path.c_str(), line_number, e.what()));
    }
    info.users = *users;
    if (*tier == 1) tier1.push_back(static_cast<Asn>(*asn));
    if (*tier == 2) tier2.push_back(static_cast<Asn>(*asn));
  }
  TierSets tiers = MakeTierSets(graph, tier1, tier2);
  return Internet(std::move(graph), std::move(tiers), std::move(metadata));
}

}  // namespace flatnet
