// Fig 3: hierarchy-free reachability vs. customer cone for every AS.
//
// Paper shape: apart from the Tier-1/Tier-2 ISPs (large on both axes) the
// two metrics barely correlate; thousands of ASes achieve high hierarchy-
// free reachability with tiny customer cones (8,374 ASes >= 1,000
// hierarchy-free vs only 51 with cones >= 1,000); Sprint is a Tier-1 by
// cone but ranks in the thousands by hierarchy-free reachability.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "asgraph/cone.h"
#include "common.h"
#include "sweep/engine.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

int main() {
  bench::PrintHeader("bench_fig3: hierarchy-free reachability vs customer cone", "Fig 3 / §6.6");
  const Internet& internet = bench::Internet2020();
  std::size_t n = internet.num_ases();

  std::vector<std::uint32_t> reach = sweep::HierarchyFreeSweep(internet);
  std::vector<std::uint32_t> cones = CustomerConeSizes(internet.graph());

  // Scatter summary: bucket the plane (log-scale cone axis) per AS type.
  std::printf("scatter summary (count of ASes per cell):\n");
  TextTable table;
  table.AddColumn("cone \\ hier-free");
  const char* reach_labels[] = {"<1%", "1-25%", "25-50%", "50-75%", ">75%"};
  for (const char* label : reach_labels) table.AddColumn(label, TextTable::Align::kRight);
  auto reach_bin = [&](std::uint32_t r) {
    double f = static_cast<double>(r) / (n - 1);
    if (f < 0.01) return 0;
    if (f < 0.25) return 1;
    if (f < 0.50) return 2;
    if (f < 0.75) return 3;
    return 4;
  };
  auto cone_bin = [](std::uint32_t c) {
    if (c <= 1) return 0;
    if (c <= 10) return 1;
    if (c <= 100) return 2;
    if (c <= 1000) return 3;
    return 4;
  };
  const char* cone_labels[] = {"1 (stub)", "2-10", "11-100", "101-1000", ">1000"};
  std::vector<std::vector<std::size_t>> cells(5, std::vector<std::size_t>(5, 0));
  for (AsId id = 0; id < n; ++id) ++cells[cone_bin(cones[id])][reach_bin(reach[id])];
  for (int c = 0; c < 5; ++c) {
    std::vector<std::string> row{cone_labels[c]};
    for (int r = 0; r < 5; ++r) row.push_back(std::to_string(cells[c][r]));
    table.AddRow(row);
  }
  table.Print(stdout);

  // Key named points (the figure's highlighted markers).
  std::printf("\nnamed networks:\n");
  TextTable named;
  named.AddColumn("network");
  named.AddColumn("cone", TextTable::Align::kRight);
  named.AddColumn("hier-free", TextTable::Align::kRight);
  named.AddColumn("hf-rank", TextTable::Align::kRight);
  std::vector<AsId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](AsId a, AsId b) { return reach[a] > reach[b]; });
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[order[i]] = i + 1;
  for (const char* name : {"Google", "Microsoft", "Amazon", "IBM", "Level 3", "Sprint",
                           "Hurricane Electric"}) {
    AsId id = bench::IdByName(internet, name);
    named.AddRow({name, WithCommas(cones[id]), WithCommas(reach[id]),
                  std::to_string(rank[id])});
  }
  named.Print(stdout);

  // Correlation excluding the hierarchy itself.
  std::vector<double> x, y;
  Bitset hierarchy = internet.tiers().HierarchyMask();
  for (AsId id = 0; id < n; ++id) {
    if (hierarchy.Test(id)) continue;
    x.push_back(static_cast<double>(cones[id]));
    y.push_back(static_cast<double>(reach[id]));
  }
  double spearman = SpearmanCorrelation(x, y);
  std::printf("\nSpearman(cone, hierarchy-free) outside the hierarchy: %.3f\n", spearman);

  // Threshold census (the paper's 8,374 vs 51 contrast, scaled).
  double threshold = 1000.0 * n / 69999.0;
  std::size_t high_reach = 0, big_cone = 0;
  for (AsId id = 0; id < n; ++id) {
    if (reach[id] >= threshold) ++high_reach;
    if (cones[id] >= threshold) ++big_cone;
  }
  std::printf("ASes with hierarchy-free reach >= %.0f: %zu; customer cone >= %.0f: %zu\n",
              threshold, high_reach, threshold, big_cone);

  bench::Expect(high_reach > 20 * big_cone,
                "orders of magnitude more ASes have high hierarchy-free reachability than "
                "large customer cones (paper: 8,374 vs 51)");
  AsId sprint = bench::IdByName(internet, "Sprint");
  // Cone rank of Sprint for the relative comparison the paper makes
  // (customer-cone rank 32 vs hierarchy-free rank 2,978).
  std::vector<AsId> cone_order(n);
  std::iota(cone_order.begin(), cone_order.end(), 0);
  std::sort(cone_order.begin(), cone_order.end(),
            [&](AsId a, AsId b) { return cones[a] > cones[b]; });
  std::size_t sprint_cone_rank = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (cone_order[i] == sprint) sprint_cone_rank = i + 1;
  }
  bench::Expect(rank[sprint] > sprint_cone_rank && rank[sprint] > 40,
                StrFormat("Sprint, #%zu by customer cone, falls to #%zu by hierarchy-free "
                          "reachability (paper: #32 vs #2,978)",
                          sprint_cone_rank, rank[sprint]));
  AsId google = bench::IdByName(internet, "Google");
  bench::Expect(cones[google] < cones[sprint] && reach[google] > reach[sprint],
                "Google: tiny cone, huge hierarchy-free reachability (the flattening signature)");
  bench::PrintSummary();
  return 0;
}
