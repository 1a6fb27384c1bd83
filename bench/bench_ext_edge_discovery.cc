// Extension (§11 future work): "an efficient method to uncover other edge
// networks' neighbors is an area for future research."
//
// §4.4 concedes the study underestimates the interconnectivity of non-cloud
// hypergiants like Facebook because no VMs run inside them. This bench
// applies the paper's own methodology to the Facebook archetype: place
// measurement VMs inside it, run the traceroute campaign and inference, and
// merge its inferred neighbors. The measured topology's estimate of
// Facebook's hierarchy-free reachability should jump from the BGP-limited
// figure toward ground truth — quantifying how much the paper's published
// numbers understate edge hypergiants.
#include <cstdio>

#include "common.h"
#include "core/reachability_analysis.h"
#include "core/study.h"
#include "measure/validation.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

int main() {
  bench::PrintHeader("bench_ext_edge_discovery: measuring a non-cloud hypergiant from inside",
                     "extension of §4.4 / §11 (future work)");

  // Baseline study: the paper's setup — no VMs inside Facebook.
  StudyOptions base = EraStudyOptions(/*era2020=*/true);

  // Extended study: identical world, but Facebook hosts 10 measurement VMs.
  StudyOptions extended = base;
  for (CloudArchetype& cloud : extended.generator.clouds) {
    if (cloud.name == "Facebook") cloud.vm_locations = 10;
  }

  Study paper_study(base);
  Study extended_study(extended);

  auto fb_base = paper_study.world().Cloud("Facebook").id;
  auto fb_ext = extended_study.world().Cloud("Facebook").id;

  std::size_t denom = paper_study.world().num_ases() - 1;
  std::size_t hf_paper =
      AnalyzeReachability(paper_study.internet(), fb_base).hierarchy_free;
  std::size_t hf_extended =
      AnalyzeReachability(extended_study.internet(), fb_ext).hierarchy_free;
  std::size_t hf_truth = AnalyzeReachability(extended_study.truth(), fb_ext).hierarchy_free;

  // Validation of the new inferences, now that Facebook is measurable.
  std::uint32_t fb_index = 0;
  for (std::uint32_t c = 0; c < extended_study.world().clouds.size(); ++c) {
    if (extended_study.world().clouds[c].archetype.name == "Facebook") fb_index = c;
  }
  auto truth_neighbors = TrueNeighborAsns(extended_study.world().full_graph, fb_ext);
  ValidationStats stats =
      ValidateNeighbors(extended_study.inferred_neighbors()[fb_index], truth_neighbors);

  TextTable table;
  table.AddColumn("Facebook estimate");
  table.AddColumn("hierarchy-free", TextTable::Align::kRight);
  table.AddColumn("% of ASes", TextTable::Align::kRight);
  table.AddRow({"paper setup (BGP view only)", WithCommas(hf_paper),
                StrFormat("%.1f%%", 100.0 * hf_paper / denom)});
  table.AddRow({"with VMs inside Facebook", WithCommas(hf_extended),
                StrFormat("%.1f%%", 100.0 * hf_extended / denom)});
  table.AddRow({"ground truth", WithCommas(hf_truth),
                StrFormat("%.1f%%", 100.0 * hf_truth / denom)});
  table.Print(stdout);
  std::printf("\ninference quality from the new vantage points: FDR %.1f%%, FNR %.1f%%\n",
              100 * stats.Fdr(), 100 * stats.Fnr());

  bench::Expect(hf_extended > hf_paper,
                "measuring from inside raises the estimate of Facebook's independence");
  bench::Expect(hf_truth >= hf_extended &&
                    (hf_truth - hf_extended) * 3 < (hf_truth - hf_paper) * 4,
                "the inside-measurement estimate closes most of the gap to ground truth");
  bench::Expect(stats.Fdr() < 0.25,
                "the paper's final methodology transfers to a non-cloud network with "
                "comparable accuracy");
  bench::PrintSummary();
  return 0;
}
