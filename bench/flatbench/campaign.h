// Batch workloads (the paper's campaigns run in-process through the public
// engine APIs) and the in-process layer probes every traced run reports.
#ifndef FLATBENCH_CAMPAIGN_H_
#define FLATBENCH_CAMPAIGN_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "core/internet.h"

namespace flatbench {

enum class BatchKind { kSweep, kResilience, kLinkFail };

// The benchmark's world: Era2020 ground truth at `ases`, seed 42, graph only.
flatnet::Internet GenerateInternet(std::uint32_t ases);

// One --trace 0 or --trace 1 run of a batch workload.
RunResult RunBatchWorkload(BatchKind kind, const Settings& settings, SpanRecorder* spans);

// Which campaign engines ProbeCampaignLayers exercises.
enum CampaignEngine : unsigned {
  kSweepEngine = 1u << 0,
  kLeakEngine = 1u << 1,
  kKnockoutEngine = 1u << 2,  // single_as / tier1 / hegemony_cascade cells
  kLinkSetEngine = 1u << 3,
  kAllEngines = 0xfu,
};

// sweep.* / leaksim.* / failsim.* per-layer metrics from small campaigns of
// the selected engines on `internet`.
void ProbeCampaignLayers(const flatnet::Internet& internet, unsigned engines,
                         const Settings& settings, RunResult& result);

// bgp.* kernel timings (median over seeded origins), fleet.merge_top_us,
// and topogen/core set-up costs from a generation child process, all on a
// world of `ases` ASes.
void ProbeKernelLayers(const flatnet::Internet& internet, std::uint32_t ases,
                       const Settings& settings, RunResult& result);

// `flatbench --gen-probe <ases> <path>`: generates, saves and maps one
// world in a fresh process and prints its timings and peak RSS as JSON.
int GenProbeMain(std::uint32_t ases, const std::string& path);

}  // namespace flatbench

#endif  // FLATBENCH_CAMPAIGN_H_
