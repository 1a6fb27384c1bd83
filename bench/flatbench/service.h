// Service workloads: the real flatnet_serve / flatnet_router daemons from
// this build, driven over loopback by a one-thread open-loop generator.
#ifndef FLATBENCH_SERVICE_H_
#define FLATBENCH_SERVICE_H_

#include <string>
#include <vector>

#include "asgraph/as_graph.h"
#include "common.h"
#include "core/internet.h"

namespace flatbench {

enum class ServiceKind { kServeHot, kServeCold, kFleetHot };

// The service topology (Era2020 world, seed 42) and its sweep, leak and
// fail stores, built once per build directory and reused by later runs.
struct ServiceInputs {
  std::string graph_path;
  std::string sweep_path;
  std::string leak_path;
  std::string fail_path;
  flatnet::Internet internet;  // the mapped .graph
  std::vector<flatnet::Asn> leak_victims;
  std::vector<flatnet::Asn> fail_origins;
  std::vector<std::string> fail_scenarios;
  flatnet::Json digests;  // store file digests
};

ServiceInputs LoadServiceInputs(const Settings& settings);

// One --trace 0 or --trace 1 run of a service workload.
RunResult RunServiceWorkload(ServiceKind kind, const Settings& settings, SpanRecorder* spans);

// The serve-layer per-layer metrics from a short traced serve-hot session,
// for workloads that do not exercise the serve layer themselves.
void ProbeServeLayers(const Settings& settings, RunResult& result, SpanRecorder* spans);

}  // namespace flatbench

#endif  // FLATBENCH_SERVICE_H_
