// End-to-end reproduction pipeline for one era (§4.1):
//
//   generate ground truth  →  run traceroute campaign from cloud VMs  →
//   infer cloud neighbors  →  merge with the BGP-visible graph (CAIDA
//   stand-in; existing link types win, new links become p2p)  →  analysis
//   topology (Internet).
//
// The study keeps the ground truth, the raw traces, and the per-cloud
// neighbor provenance so the §4.1 counts, §5 validation, and Appendix A
// comparisons can all be reported from one object.
#ifndef FLATNET_CORE_STUDY_H_
#define FLATNET_CORE_STUDY_H_

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/internet.h"
#include "measure/inference.h"
#include "measure/traceroute.h"
#include "topogen/generate.h"

namespace flatnet {

struct StudyOptions {
  GeneratorParams generator;
  CampaignOptions campaign;
  MethodologyStage stage = MethodologyStage::kV3Final;
};

// The era recipe every tool and bench builds its topology from: the
// Era2015 or Era2020 preset (`ases` = 0 keeps the FLATNET_SCALE-scaled
// count), the preset's seed unless `seed` is nonzero, and a campaign seed
// derived from the generator's. Equal arguments give equal topologies, so
// a cached `.graph` matches `flatnet_gen --graph-out` for the same era.
StudyOptions EraStudyOptions(bool era2020, std::uint32_t ases = 0, std::uint64_t seed = 0);

struct CloudPeerCounts {
  std::string name;
  std::size_t bgp_only = 0;    // peers visible in the BGP graph alone
  std::size_t merged = 0;      // peers after traceroute augmentation
  std::size_t ground_truth = 0;
};

class Study {
 public:
  explicit Study(const StudyOptions& options);

  const World& world() const { return world_; }
  const AddressPlan& plan() const { return *plan_; }
  const TracerouteCampaign& campaign() const { return *campaign_; }
  const NeighborInference& inference() const { return inference_; }

  // Analysis topology: BGP view + inferred cloud neighbors.
  const Internet& internet() const { return internet_; }
  // Ground-truth topology wrapped with the same tiers/metadata.
  const Internet& truth() const { return truth_; }

  // Inferred neighbor ASN set per cloud (indexed like world().clouds).
  const std::vector<std::set<Asn>>& inferred_neighbors() const { return inferred_; }

  // §4.1's "CAIDA vs. combined" peer counts for the study clouds.
  std::vector<CloudPeerCounts> PeerCounts() const;

  // Re-runs inference at a different methodology stage (for §5's
  // trajectory) without re-measuring.
  std::vector<std::set<Asn>> InferAtStage(MethodologyStage stage) const;

  const CymruResolver& cymru() const { return *cymru_; }
  const PeeringDbResolver& peeringdb() const { return *peeringdb_; }
  const WhoisResolver& whois() const { return *whois_; }

 private:
  AsGraph BuildMergedGraph() const;

  World world_;
  std::unique_ptr<AddressPlan> plan_;
  std::unique_ptr<CymruResolver> cymru_;
  std::unique_ptr<PeeringDbResolver> peeringdb_;
  std::unique_ptr<WhoisResolver> whois_;
  std::unique_ptr<TracerouteCampaign> campaign_;
  NeighborInference inference_;
  std::vector<std::set<Asn>> inferred_;
  Internet internet_;
  Internet truth_;
};

}  // namespace flatnet

#endif  // FLATNET_CORE_STUDY_H_
