// Wire protocol for the resident analysis service (flatnet_serve).
//
// Transport is line-delimited JSON over TCP: one request object per line,
// one response object per line. Requests carry an `op` plus op-specific
// parameters; responses echo the client-chosen `id` verbatim so a pipelined
// client can match them out of order.
//
// Request grammar. This header is its one definition: protocol.cc reads
// every request key through one table row and every enum value through
// the name tables below, and flatnet_serve and flatnet_router both parse
// with ParseRequest.
//
//   {"op":"reach","origin":<asn>,            hierarchy-free reachability
//    "mode":"full"|"provider_free"|"tier1_free"|"hierarchy_free",
//    "excluded":[<asn>...],                  extra ASes removed from the
//    "peer_locked":[<asn>...],               subgraph; defensive locking
//    "lock_mode":"full"|"direct_only",
//    "id":<any>,"deadline_ms":<n>}
//   {"op":"reliance","origin":<asn>,"k":<n>, top-k transit reliance
//    "id":<any>,"deadline_ms":<n>}
//   {"op":"leak","victim":<asn>,"leaker":<asn>,
//    "model":"reannounce"|"originate",
//    "peer_locked":[<asn>...],"lock_mode":...,
//    "id":<any>,"deadline_ms":<n>}
//   {"op":"top","k":<n>,                     top-k origins from the loaded
//    "metric":"provider_free"|"tier1_free"|  sweep store (microseconds —
//             "hierarchy_free",              precomputed rankings, no BFS)
//    "id":<any>}
//   {"op":"leakdist","victim":<asn>,         detour-fraction percentiles
//    "scenario":"none"|"t1"|"t1t2"|          from the loaded leak-campaign
//               "global"|"hierarchy",        store (inline, no simulation)
//    "lock_mode":"full"|"direct_only",
//    "model":"reannounce"|"originate",
//    "q":[<quantile in [0,1]>...],
//    "id":<any>}
//   {"op":"hegemony","origin":<asn>,         top-k transit ASes by hegemony
//    "k":<n>,"id":<any>}                     score for a fail-store origin
//                                            (rankings precomputed at attach
//                                            time; inline, no propagation)
//   {"op":"failure","origin":<asn>,          damage percentiles from the
//    "scenario":"single_as"|"tier1"|         loaded failure-campaign store
//               "hegemony_cascade"|          (inline, no simulation)
//               "link_set",
//    "column":"loss_ases"|"disconnected"|"loss_users",
//    "q":[<quantile in [0,1]>...],
//    "id":<any>}
//   {"op":"status","id":<any>}               uptime, cache + obs snapshot
//   {"op":"metrics","id":<any>,              full metrics registry snapshot
//    "format":"json"|"prometheus"}           (inline; "prometheus" wraps the
//                                            text exposition in a string)
//   {"op":"debug","id":<any>,"n":<max>}      newest flight-recorder events
//                                            (obs/recorder.h; inline)
//
// Every op additionally accepts `"timing":true` — an opt-in request for
// the server-side phase timeline. It never affects the result (or the
// cache key); the response merely gains a `timing` field.
//
// Parse rules. A line is rejected with `bad_request` (`unknown_op` for an
// unknown op), naming the first fault, when it is not JSON, nests arrays
// and objects deeper than Json::kMaxDepth, repeats a key, is not an
// object, or lacks a string `op`; when it carries a key its op does not
// take (an unknown key, or another op's key: typos fail loudly); when a
// value is out of range (ASNs in [1, 2^32), `k` and `n` in [1, 100000],
// `deadline_ms` in [1, kMaxDeadlineMs], quantiles in [0, 1]); or when a
// required field is missing. Keys are checked in sorted order, required
// fields after them. An error echoes the line's `id` whenever the line is
// a JSON object.
//
// Responses:
//   {"cached":<bool>,"id":<echo>,"ok":true,"result":{...}}
//   {"cached":...,"id":...,"ok":true,"result":{...},"timing":{"phases":
//    [{"ms":<n>,"name":"parse"},...],"server_ms":<n>}}   (timing requested)
//   {"error":{"code":"<code>","message":"..."},"id":<echo>,"ok":false}
//
// The `result` object of a successful response is embedded verbatim from
// the computation (or the result cache), so a cached reply is byte-for-byte
// identical to the cold one — and a request without `timing` produces a
// response byte-identical to one from a server built before tracing
// existed. Error codes: bad_request, unknown_op, unknown_asn, overloaded,
// deadline_exceeded, unavailable, internal. `unavailable` is raised by the
// fleet router (fleet/router.h) when the shard owning a request's slice of
// origin space is out of the ring; a single server never emits it.
#ifndef FLATNET_SERVE_PROTOCOL_H_
#define FLATNET_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "asgraph/as_graph.h"
#include "bgp/leak.h"
#include "bgp/policy.h"
#include "core/leak_scenarios.h"
#include "failsim/store.h"
#include "sweep/store.h"
#include "util/error.h"
#include "util/json.h"
#include "util/names.h"

namespace flatnet::serve {

enum class ErrorCode : std::uint8_t {
  kBadRequest,
  kUnknownOp,
  kUnknownAsn,
  kOverloaded,
  kDeadlineExceeded,
  kUnavailable,
  kInternal,
};

inline constexpr NameTable<ErrorCode, 7> kErrorCodeNames{
    {"bad_request", "unknown_op", "unknown_asn", "overloaded", "deadline_exceeded",
     "unavailable", "internal"}};
inline const char* ToString(ErrorCode code) { return kErrorCodeNames.Name(code); }

// A request that cannot be served as asked; the dispatcher renders it as a
// structured error response instead of tearing the connection down.
class ProtocolError : public Error {
 public:
  ProtocolError(ErrorCode code, const std::string& message)
      : Error(message), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

enum class QueryKind : std::uint8_t {
  kReach,
  kReliance,
  kLeak,
  kStatus,
  kTop,
  kLeakDist,
  kMetrics,
  kDebug,
  kHegemony,
  kFailure,
};

inline constexpr std::size_t kNumQueryKinds = 10;

// The `op` spellings.
inline constexpr NameTable<QueryKind, kNumQueryKinds> kQueryKindNames{
    {"reach", "reliance", "leak", "status", "top", "leakdist", "metrics", "debug", "hegemony",
     "failure"}};
inline const char* ToString(QueryKind kind) { return kQueryKindNames.Name(kind); }

// The longest `deadline_ms` a request may carry. The daemons' millisecond
// time flags share the cap, so no deadline, timeout or hedge delay they
// add to steady_clock::now() can overflow the clock.
inline constexpr std::int64_t kMaxDeadlineMs = 3'600'000;

// Which baseline exclusion set a reach query starts from (§6's nested
// metrics); user-supplied `excluded` ASes are unioned on top.
enum class ReachMode : std::uint8_t {
  kFull,           // no baseline exclusion
  kProviderFree,   // reach(o, I \ Po)
  kTier1Free,      // reach(o, I \ Po \ T1)
  kHierarchyFree,  // reach(o, I \ Po \ T1 \ T2)
};

// The nested modes are spelled as the sweep columns that store them.
inline constexpr NameTable<ReachMode, 4> kReachModeNames{
    {"full", sweep::kSweepColumnNames.names[0], sweep::kSweepColumnNames.names[1],
     sweep::kSweepColumnNames.names[2]}};
inline const char* ToString(ReachMode mode) { return kReachModeNames.Name(mode); }

// The columns `top` ranks by: the three reach columns ("full" names no
// stored column).
inline constexpr NameTable<sweep::SweepColumn, 3> kTopMetricNames =
    sweep::kSweepColumnNames.First<3>();

// Which per-trial damage column a `failure` query reports percentiles of.
enum class FailColumn : std::uint8_t {
  kLossAses,      // collateral loss fraction of baseline
  kDisconnected,  // absolute ASes cut off (knocked-out ASes included)
  kLossUsers,     // user-weighted collateral fraction (has_users stores)
};

inline constexpr NameTable<FailColumn, 3> kFailColumnNames{
    {"loss_ases", "disconnected", "loss_users"}};
inline const char* ToString(FailColumn column) { return kFailColumnNames.Name(column); }

// How a `metrics` request wants the registry rendered.
enum class MetricsFormat : std::uint8_t {
  kJson,        // the snapshot object
  kPrometheus,  // the text exposition, wrapped in a string
};

inline constexpr NameTable<MetricsFormat, 2> kMetricsFormatNames{{"json", "prometheus"}};
inline const char* ToString(MetricsFormat format) { return kMetricsFormatNames.Name(format); }

// One parsed, canonicalized request. AS lists are sorted and deduplicated
// at parse time so equal queries produce equal cache keys. An ASN field
// holds 0 until the request sets it (0 is never a valid ASN).
struct Request {
  QueryKind kind = QueryKind::kStatus;
  Json id;                       // echoed verbatim; null when absent
  std::int64_t deadline_ms = 0;  // 0 = use the server default
  // Opt-in phase timeline in the response (any op); never part of the
  // cache key — timing describes this request, not the result.
  bool timing = false;
  // metrics: how to render the registry.
  MetricsFormat format = MetricsFormat::kJson;
  // debug: newest flight-recorder events to return.
  std::size_t debug_n = 256;

  // reach / reliance / hegemony / failure
  Asn origin = 0;
  // reach
  ReachMode mode = ReachMode::kHierarchyFree;
  std::vector<Asn> excluded;
  std::vector<Asn> peer_locked;
  PeerLockMode lock_mode = PeerLockMode::kFull;
  // reliance / top / hegemony
  std::size_t top_k = 10;
  // top: which sweep column to rank by.
  sweep::SweepColumn metric = sweep::SweepColumn::kHierarchyFree;
  // leak / leakdist
  Asn victim = 0;
  Asn leaker = 0;
  LeakModel model = LeakModel::kReannounce;
  // leakdist: which campaign cell and which percentiles to report.
  // Empty `quantiles` means the server default (0.5, 0.9, 0.99).
  LeakScenario scenario = LeakScenario::kAnnounceAll;
  std::vector<double> quantiles;
  // failure: which failure-campaign cell and which damage column.
  failsim::FailScenario fail_scenario = failsim::FailScenario::kSingleAs;
  FailColumn fail_column = FailColumn::kLossAses;
};

// Parses one request line (JSON text) into a default-constructed
// `request`, or throws ProtocolError by the parse rules above. The line's
// `id` lands in `request.id` before any field is checked, so the caller's
// error response can echo it. The one parser both daemons call.
void ParseRequest(std::string_view line, Request& request);

// Canonical result-cache key: everything that affects the result — kind,
// origin(s), canonicalized option sets — and nothing that does not (id,
// deadline, timing). Empty for status, top, leakdist, metrics, debug,
// hegemony, and failure, which are answered inline and never cached.
std::string CacheKey(const Request& request);

// Response encoders. `result_json` is a compact JSON object embedded
// verbatim so cached and cold replies serialize identically. The non-null
// `timing_json` overload appends a `timing` field after `result` (keys
// stay sorted); responses without timing are byte-identical to the
// two-argument form.
std::string OkResponse(const Json& id, const std::string& result_json, bool cached);
std::string OkResponse(const Json& id, const std::string& result_json, bool cached,
                       const std::string* timing_json);
std::string ErrorResponse(const Json& id, ErrorCode code, const std::string& message);

}  // namespace flatnet::serve

#endif  // FLATNET_SERVE_PROTOCOL_H_
