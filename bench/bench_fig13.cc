// Fig 13 / Appendix E: AS-path lengths from each cloud to the rest of the
// Internet in 2015 and 2020 — as a share of all ASes, of eyeball ASes, and
// weighted by user population.
//
// Paper shape: direct-connectivity shares stay roughly stable over time
// (peering growth trails the Internet's expansion); Google serves the
// largest share of users over direct (1-hop) paths — several times
// Amazon's and IBM's share.
#include <cstdio>
#include <map>
#include <string>

#include "common.h"
#include "core/reachability_analysis.h"
#include "util/strings.h"
#include "util/table.h"

using namespace flatnet;

namespace {

struct Shares {
  double one = 0, two = 0, three = 0;
};

Shares ToShares(const PathLengthBins& bins) {
  double total = bins.Total();
  if (total <= 0) return {};
  return {bins.one_hop / total, bins.two_hops / total, bins.three_plus / total};
}

}  // namespace

int main() {
  bench::PrintHeader("bench_fig13: path lengths from the clouds, 2015 vs 2020",
                     "Fig 13 / Appendix E");

  TextTable table;
  table.AddColumn("cloud");
  table.AddColumn("era");
  table.AddColumn("weighting");
  table.AddColumn("1 hop", TextTable::Align::kRight);
  table.AddColumn("2 hops", TextTable::Align::kRight);
  table.AddColumn("3+ hops", TextTable::Align::kRight);

  std::map<std::string, Shares> user_shares;  // "cloud/era" -> population-weighted
  std::map<std::string, Shares> as_shares;

  for (auto [era, internet] : {std::pair<const char*, const Internet*>{"2015",
                                                                       &bench::Internet2015()},
                               {"2020", &bench::Internet2020()}}) {
    std::vector<double> users = internet->metadata().UserArray();
    std::vector<double> eyeball(users.size());
    for (AsId id = 0; id < users.size(); ++id) eyeball[id] = users[id] > 0 ? 1.0 : 0.0;
    for (const char* cloud : {"Google", "Microsoft", "Amazon", "IBM"}) {
      AsId id = bench::IdByName(*internet, cloud);
      Shares all = ToShares(PathLengths(*internet, id));
      Shares eye = ToShares(PathLengths(*internet, id, &eyeball));
      Shares pop = ToShares(PathLengths(*internet, id, &users));
      auto row = [&](const char* weighting, const Shares& s) {
        table.AddRow({cloud, era, weighting, StrFormat("%.1f%%", 100 * s.one),
                      StrFormat("%.1f%%", 100 * s.two), StrFormat("%.1f%%", 100 * s.three)});
      };
      row("all ASes", all);
      row("eyeball ASes", eye);
      row("population", pop);
      user_shares[std::string(cloud) + "/" + era] = pop;
      as_shares[std::string(cloud) + "/" + era] = all;
    }
    table.AddSeparator();
  }
  table.Print(stdout);

  bench::Expect(user_shares["Google/2020"].one > 2.0 * user_shares["Amazon/2020"].one,
                "Google reaches several times more of the user population over direct paths "
                "than Amazon (paper: 61.6% vs 17.8%)");
  bench::Expect(user_shares["Google/2020"].one > user_shares["IBM/2020"].one,
                "Google's population-weighted direct share also beats IBM's");
  double google_drift =
      std::abs(as_shares["Google/2020"].one - as_shares["Google/2015"].one);
  bench::Expect(google_drift < 0.15,
                StrFormat("Google's direct share of all ASes is roughly stable across eras "
                          "(drift %.1f points)",
                          100 * google_drift));
  bench::PrintSummary();
  return 0;
}
