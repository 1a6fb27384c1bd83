// Shared scaffolding for the experiment binaries.
//
// Every bench prints a provenance header (scale, topology size), the
// paper-style table or series it reproduces, and `EXPECT` lines stating the
// paper's qualitative claims with a PASS/FAIL check — so bench_output.txt
// is self-auditing.
#ifndef FLATNET_BENCH_COMMON_H_
#define FLATNET_BENCH_COMMON_H_

#include <string>

#include "core/internet.h"
#include "core/study.h"

namespace flatnet::bench {

// Builds (or loads from the on-disk `.graph` cache under ./flatnet_cache/)
// the analysis topology for an era. The cache key includes the AS count
// so changing FLATNET_SCALE rebuilds.
const Internet& Internet2020();
const Internet& Internet2015();

// Full study objects (always built in-process; used by the measurement
// benches that need traces and ground truth).
const Study& Study2020();
const Study& Study2015();

// Ground-truth world only (no measurement campaign) — used by the PoP /
// geography benches, which need presence footprints but no traces.
const World& World2020();

// Prints the standard bench header.
void PrintHeader(const std::string& title, const std::string& paper_ref);

// Prints "EXPECT [PASS|FAIL] <claim>" and records the outcome; returns ok.
bool Expect(bool ok, const std::string& claim);

// Number of EXPECT failures so far (by default the bench exit code stays
// 0 — an absolute mismatch against the paper is a reportable result, not a
// crash — but the summary line makes failures visible; set
// FLATNET_EXPECT_STRICT=1 to make PrintSummary exit nonzero instead, for
// CI gating).
int ExpectFailures();

// Prints the closing summary line. When FLATNET_METRICS_OUT is set, also
// writes the obs metrics snapshot (counters, histograms, trace spans)
// there as JSON. Under FLATNET_EXPECT_STRICT=1 the process exits with
// status 1 if any EXPECT failed.
void PrintSummary();

// Display name for an AS (archetype name, or "AS<asn>").
std::string NameOf(const Internet& internet, AsId id);

// Finds the AsId of a study cloud / named archetype by metadata name;
// throws if absent.
AsId IdByName(const Internet& internet, const std::string& name);

}  // namespace flatnet::bench

#endif  // FLATNET_BENCH_COMMON_H_
