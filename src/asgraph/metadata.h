// Per-AS metadata carried alongside the relationship graph: display name,
// business category (§4.3's content/transit/access/enterprise taxonomy plus
// an explicit cloud tag), and the APNIC-style estimated user population.
#ifndef FLATNET_ASGRAPH_METADATA_H_
#define FLATNET_ASGRAPH_METADATA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"

namespace flatnet {

// §4.3 taxonomy. CAIDA's classifier emits content / transit-access /
// enterprise; the paper splits transit-access into "transit" and "access"
// (access = has users in the APNIC dataset), and we tag the four studied
// cloud providers explicitly.
enum class AsType : std::uint8_t {
  kTransit = 0,
  kAccess = 1,
  kContent = 2,
  kEnterprise = 3,
  kCloud = 4,
};

const char* ToString(AsType type);

struct AsInfo {
  std::string name;
  AsType type = AsType::kEnterprise;
  // Estimated Internet users in this AS (APNIC-style eyeball estimate).
  double users = 0.0;
};

// Parallel-array metadata store, indexed by AsId.
class AsMetadata {
 public:
  AsMetadata() = default;
  explicit AsMetadata(std::size_t num_ases) : info_(num_ases) {}

  std::size_t size() const { return info_.size(); }

  const AsInfo& Get(AsId id) const { return info_[id]; }
  AsInfo& GetMutable(AsId id) { return info_[id]; }

  // Sum of users across all ASes.
  double TotalUsers() const;

  // Per-AS user population as a flat array indexed by AsId (for leak and
  // failure weighting).
  std::vector<double> UserArray() const;

  // Count of ASes per type.
  std::vector<std::size_t> TypeCounts() const;

 private:
  std::vector<AsInfo> info_;
};

// Applies the paper's classification rule to raw CAIDA-style labels: an AS
// labeled transit/access that has users becomes kAccess, otherwise
// kTransit. kCloud/kContent/kEnterprise pass through.
AsType ReclassifyWithUsers(AsType caida_label, double users);

}  // namespace flatnet

#endif  // FLATNET_ASGRAPH_METADATA_H_
