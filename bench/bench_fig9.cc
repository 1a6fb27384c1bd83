// Fig 9 (erratum version): fraction of *users* whose ASes are detoured when
// Google's prefix is leaked, per announcement/locking scenario.
//
// Paper shape: the user-weighted CDFs track the AS-weighted ones with a
// slight left skew — detoured ASes serve a somewhat smaller share of users.
//
// All five cells run as one user-weighted campaign (src/leaksim/) with the
// historical per-scenario seeds, so the series match the old serial loop.
#include <cstdio>
#include <numeric>
#include <vector>

#include "common.h"
#include "core/leak_scenarios.h"
#include "leaksim/engine.h"
#include "util/env.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

namespace {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

}  // namespace

int main() {
  bench::PrintHeader("bench_fig9: users detoured when Google's prefix is leaked",
                     "Fig 9 (erratum) / §8.3");
  const Internet& internet = bench::Internet2020();
  // User populations ride on the analysis topology's metadata.
  std::vector<double> users = internet.metadata().UserArray();

  AsId google = bench::IdByName(internet, "Google");
  std::size_t trials = ScaledTrials(5000, 60);
  std::printf("trials per configuration: %zu\n\n", trials);

  TextTable table;
  table.AddColumn("scenario");
  table.AddColumn("mean ASes%", TextTable::Align::kRight);
  table.AddColumn("mean users%", TextTable::Align::kRight);
  table.AddColumn("skew", TextTable::Align::kRight);

  const LeakScenario scenarios[] = {
      LeakScenario::kAnnounceAllLockGlobal, LeakScenario::kAnnounceAllLockT1T2,
      LeakScenario::kAnnounceAllLockT1, LeakScenario::kAnnounceAll,
      LeakScenario::kAnnounceHierarchyOnly};

  std::vector<leaksim::LeakCellSpec> cells;
  for (LeakScenario scenario : scenarios) {
    leaksim::LeakCellSpec spec;
    spec.victim = google;
    spec.scenario = scenario;
    spec.seed = 0x919 + static_cast<std::uint64_t>(static_cast<int>(scenario));
    spec.trials = static_cast<std::uint32_t>(trials);
    cells.push_back(spec);
  }
  leaksim::LeakCampaignOptions options;
  options.users = &users;
  leaksim::LeakTable campaign = leaksim::RunLeakCampaign(internet, cells, options);

  double all_ases = 0, all_users = 0;
  bool ordering_holds = true;
  double prev_users = -1;
  for (const leaksim::LeakCellResult& cell : campaign.cells) {
    double m_ases = Mean(cell.fraction_ases);
    double m_users = Mean(cell.fraction_users);
    table.AddRow({ToString(cell.spec.scenario), StrFormat("%5.1f", 100 * m_ases),
                  StrFormat("%5.1f", 100 * m_users),
                  m_users < m_ases ? "left (fewer users)" : "right"});
    if (cell.spec.scenario == LeakScenario::kAnnounceAll) {
      all_ases = m_ases;
      all_users = m_users;
    }
    if (prev_users >= 0 && m_users + 0.05 < prev_users) ordering_holds = false;
    prev_users = m_users;
  }
  table.Print(stdout);

  bench::Expect(all_users < all_ases + 0.03,
                StrFormat("user-weighted detour tracks (slightly left of) the AS-weighted one "
                          "(%.1f%% users vs %.1f%% ASes)",
                          100 * all_users, 100 * all_ases));
  bench::Expect(ordering_holds,
                "scenario ordering is preserved under user weighting (locking protects users)");
  bench::PrintSummary();
  return 0;
}
