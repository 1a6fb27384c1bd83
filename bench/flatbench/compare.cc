// flatbench compare <parent-dirs...> -- <change-dirs...>
//
// Reads the result.json of each run directory and applies the benchmark's
// claim rule per (workload, metric): medians and quartiles of each side,
// the change's win fraction over the pairs (i-th parent run against i-th
// change run, so alternate which side runs first when collecting them),
// and a verdict against the metric's bound from BENCHMARK.json:
//   improved    wins >= 90% of pairs and the medians differ by more than
//               the parent's interquartile range;
//   worse       the change's median is worse by more than the bound;
//   unresolved  the parent's own spread exceeds the bound and not every
//               change run beats every parent run;
//   unchanged   otherwise.
// It also checks that runs with the same seed produced identical output
// digests. Exit status: 0 when nothing is worse, every run verified, and
// every digest matches; 1 otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "util/error.h"
#include "util/strings.h"

namespace flatbench {

using flatnet::Json;
using flatnet::StrFormat;

namespace {

struct Rule {
  std::string unit;
  bool lower_is_better = true;
  double bound = -1.0;  // < 0: no bound (per-layer metrics)
};

std::map<std::string, Rule> LoadRules(const std::string& benchmark_path) {
  Json doc = Json::Parse(ReadFile(benchmark_path));
  std::map<std::string, Rule> rules;
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const Json& m : doc.At(section).AsArray()) {
      Rule rule;
      rule.unit = m.At("unit").AsString();
      rule.lower_is_better = m.At("better").AsString() == "lower";
      if (m.Contains("bound")) rule.bound = m.At("bound").AsNumber();
      rules[m.At("name").AsString()] = rule;
    }
  }
  return rules;
}

struct Run {
  std::string dir;
  Json doc;
};

std::vector<Run> LoadRuns(const std::vector<std::string>& dirs) {
  std::vector<Run> runs;
  for (const std::string& dir : dirs) {
    runs.push_back({dir, Json::Parse(ReadFile(dir + "/result.json"))});
  }
  return runs;
}

std::string GroupKey(const Json& doc) {
  return StrFormat("%s%s", doc.At("workload").AsString().c_str(),
                   doc.At("trace").AsBool() ? " (traced)" : "");
}

// Output digests must agree between runs of one seed: scalar entries
// exactly, per-job lists over the jobs both runs completed.
bool DigestsAgree(const Json& a, const Json& b, std::string* why) {
  for (const auto& [key, value] : a.AsObject()) {
    if (!b.Contains(key)) continue;
    const Json& other = b.At(key);
    if (value.type() == Json::Type::kArray && other.type() == Json::Type::kArray) {
      std::size_t n = std::min(value.size(), other.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (!(value[i] == other[i])) {
          *why = StrFormat("%s[%zu]", key.c_str(), i);
          return false;
        }
      }
    } else if (!(value == other)) {
      *why = key;
      return false;
    }
  }
  return true;
}

}  // namespace

int CompareMain(const std::vector<std::string>& parent_dirs,
                const std::vector<std::string>& change_dirs,
                const std::string& benchmark_path) {
  std::map<std::string, Rule> rules = LoadRules(benchmark_path);
  std::vector<Run> parent = LoadRuns(parent_dirs);
  std::vector<Run> change = LoadRuns(change_dirs);
  bool ok = true;

  for (const std::vector<Run>* side : {&parent, &change}) {
    for (const Run& run : *side) {
      if (!run.doc.At("correct").AsBool()) {
        std::printf("UNVERIFIED  %s: outputs did not verify\n", run.dir.c_str());
        ok = false;
      }
    }
  }
  for (const Run& p : parent) {
    for (const Run& c : change) {
      if (GroupKey(p.doc) != GroupKey(c.doc) ||
          p.doc.At("seed").AsNumber() != c.doc.At("seed").AsNumber()) {
        continue;
      }
      std::string why;
      if (!DigestsAgree(p.doc.At("digests"), c.doc.At("digests"), &why)) {
        std::printf("DIGEST      %s vs %s differ at %s\n", p.dir.c_str(), c.dir.c_str(),
                    why.c_str());
        ok = false;
      }
    }
  }

  std::set<std::string> groups;
  for (const Run& run : parent) groups.insert(GroupKey(run.doc));
  std::printf("%-28s %-30s %12s %12s %12s %12s %6s  %s\n", "workload", "metric", "parent_med",
              "parent_iqr", "change_med", "change_iqr", "wins", "verdict");
  for (const std::string& group : groups) {
    std::vector<const Run*> p, c;
    for (const Run& run : parent) {
      if (GroupKey(run.doc) == group) p.push_back(&run);
    }
    for (const Run& run : change) {
      if (GroupKey(run.doc) == group) c.push_back(&run);
    }
    if (c.empty()) continue;
    double failed_p = 0, failed_c = 0;
    for (const Run* run : p) failed_p += run->doc.At("failed").AsNumber();
    for (const Run* run : c) failed_c += run->doc.At("failed").AsNumber();
    if (failed_c > failed_p) {
      std::printf("%-28s %-30s %12.0f %12s %12.0f %12s %6s  worse\n", group.c_str(), "failed",
                  failed_p, "", failed_c, "", "");
      ok = false;
    }
    for (const auto& entry : p.front()->doc.At("metrics").AsObject()) {
      const std::string& name = entry.first;
      auto rule_it = rules.find(name);
      Rule rule = rule_it != rules.end() ? rule_it->second : Rule{};
      std::vector<double> pv, cv;
      for (const Run* run : p) {
        pv.push_back(run->doc.At("metrics").At(name).At("value").AsNumber());
      }
      for (const Run* run : c) {
        if (run->doc.At("metrics").Contains(name)) {
          cv.push_back(run->doc.At("metrics").At(name).At("value").AsNumber());
        }
      }
      if (cv.empty()) continue;
      std::vector<double> pq = Quartiles(pv), cq = Quartiles(cv);
      auto better = [&](double a, double b) { return rule.lower_is_better ? a < b : a > b; };
      std::size_t pairs = std::min(pv.size(), cv.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) wins += better(cv[i], pv[i]) ? 1 : 0;
      double win_frac = pairs > 0 ? static_cast<double>(wins) / static_cast<double>(pairs) : 0;
      double med_p = pq[1], med_c = cq[1];
      double scale = std::abs(med_p) > 0 ? std::abs(med_p) : 1.0;
      double worse_by = (rule.lower_is_better ? med_c - med_p : med_p - med_c) / scale;
      double spread_p = (pq[2] - pq[0]) / scale;
      auto [p_min, p_max] = std::minmax_element(pv.begin(), pv.end());
      auto [c_min, c_max] = std::minmax_element(cv.begin(), cv.end());
      bool all_better = rule.lower_is_better ? *c_max < *p_min : *c_min > *p_max;
      std::string verdict;
      if (win_frac >= 0.9 && better(med_c, med_p) && std::abs(med_c - med_p) > pq[2] - pq[0]) {
        verdict = "improved";
      } else if (rule.bound < 0) {
        verdict = "report";
      } else if (worse_by > rule.bound) {
        verdict = "worse";
        ok = false;
      } else if (spread_p > rule.bound && !all_better) {
        verdict = "unresolved";
      } else {
        verdict = "unchanged";
      }
      std::printf("%-28s %-30s %12.6g %12.6g %12.6g %12.6g %5.0f%%  %s\n", group.c_str(),
                  name.c_str(), med_p, pq[2] - pq[0], med_c, cq[2] - cq[0], 100 * win_frac,
                  verdict.c_str());
    }
  }
  return ok ? 0 : 1;
}

}  // namespace flatbench
