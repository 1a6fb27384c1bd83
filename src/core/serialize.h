// Plain-text interchange for analysis topologies.
//
// An Internet serializes to two plain-text files: the relationship graph in
// CAIDA serial-1 format (so external tools — and the real CAIDA datasets —
// interoperate) and a sidecar TSV with per-AS metadata and tier membership.
// The pair is interchange, not a cache: loading it renumbers AS ids and
// keeps 6 significant digits of each AS's users, so the loaded topology's
// fingerprint differs from the saved one's and result stores built on one
// do not attach to the other. Caches use the `.graph` store
// (core/graph_store.h), which round-trips bit for bit.
#ifndef FLATNET_CORE_SERIALIZE_H_
#define FLATNET_CORE_SERIALIZE_H_

#include <string>

#include "core/internet.h"

namespace flatnet {

// Writes `<stem>.as-rel.txt` and `<stem>.meta.tsv`. The pair is published
// atomically — written to a pid-unique tmp sibling and renamed into place —
// so concurrent writers of the same stem never produce a torn file. Throws
// Error on I/O failure (tmp files are cleaned up).
void SaveInternet(const Internet& internet, const std::string& stem);

// Loads a pair written by SaveInternet. Throws Error if either file is
// missing or malformed; parse errors name the offending file and line.
Internet LoadInternet(const std::string& stem);

}  // namespace flatnet

#endif  // FLATNET_CORE_SERIALIZE_H_
