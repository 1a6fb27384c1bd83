// The generated ground-truth Internet.
//
// `full_graph` holds every interconnection that exists; `bgp_graph` holds
// only the links visible to public BGP feeds (the CAIDA stand-in). Both are
// built over the SAME AsId space — every AS is registered in both builders
// in the same order — so ids, masks, and metadata arrays are shared.
#ifndef FLATNET_TOPOGEN_WORLD_H_
#define FLATNET_TOPOGEN_WORLD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "asgraph/metadata.h"
#include "asgraph/tiers.h"
#include "geo/cities.h"
#include "net/ipv4.h"
#include "topogen/params.h"

namespace flatnet {

// A cloud archetype instantiated in a world.
struct CloudInstance {
  CloudArchetype archetype;
  AsId id = kInvalidAsId;
};

// An Internet exchange point: a shared LAN where members can peer.
struct IxpInstance {
  std::string name;
  Asn ixp_asn = 0;          // the IXP's management AS
  CityIndex city = 0;
  Ipv4Prefix lan;           // transfer network used for peering interfaces
  bool lan_in_bgp = false;  // a minority of IXP LANs are globally announced
  std::vector<AsId> members;
};

struct World {
  GeneratorParams params;

  AsGraph full_graph;  // ground truth
  AsGraph bgp_graph;   // BGP-visible subset, same AsId space
  AsMetadata metadata;
  TierSets tiers;      // ground-truth tier membership (over the shared ids)

  std::vector<CloudInstance> clouds;  // in params.clouds order
  std::vector<IxpInstance> ixps;

  // Per-AS attributes (indexed by AsId).
  std::vector<CityIndex> home_city;
  // PoP footprint; single-city networks have just their home city.
  std::vector<std::vector<CityIndex>> presence;
  // Prefixes the AS originates into BGP.
  std::vector<std::vector<Ipv4Prefix>> prefixes;

  std::size_t num_ases() const { return full_graph.num_ases(); }

  // Lookup of a study cloud by archetype name; throws if absent.
  const CloudInstance& Cloud(const std::string& name) const;

  // Ids of the four study clouds (excludes non-study archetypes).
  std::vector<AsId> StudyCloudIds() const;
};

}  // namespace flatnet

#endif  // FLATNET_TOPOGEN_WORLD_H_
