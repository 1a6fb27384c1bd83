#include "serve/protocol.h"

#include <algorithm>

#include "util/strings.h"

namespace flatnet::serve {
namespace {

ProtocolError BadRequest(const std::string& message) {
  return ProtocolError(ErrorCode::kBadRequest, message);
}

Asn ReadAsn(const Json& value, const char* key) {
  std::uint64_t raw;
  try {
    raw = value.AsU64();
  } catch (const Error&) {
    throw BadRequest(StrFormat("'%s' must be a non-negative integer ASN", key));
  }
  if (raw == 0 || raw > 0xffffffffULL) {
    throw BadRequest(StrFormat("'%s' is out of ASN range", key));
  }
  return static_cast<Asn>(raw);
}

std::vector<Asn> ReadAsnList(const Json& value, const char* key) {
  if (value.type() != Json::Type::kArray) {
    throw BadRequest(StrFormat("'%s' must be an array", key));
  }
  std::vector<Asn> asns;
  asns.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) asns.push_back(ReadAsn(value[i], key));
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  return asns;
}

// An integer in [1, max].
std::uint64_t ReadCount(const Json& value, const char* key, std::uint64_t max) {
  std::uint64_t n;
  try {
    n = value.AsU64();
  } catch (const Error&) {
    throw BadRequest(StrFormat("'%s' must be a positive integer", key));
  }
  if (n == 0 || n > max) {
    throw BadRequest(
        StrFormat("'%s' must be in [1, %llu]", key, static_cast<unsigned long long>(max)));
  }
  return n;
}

template <typename Enum, std::size_t N>
Enum ReadEnum(const NameTable<Enum, N>& names, const Json& value, const char* key) {
  if (value.type() == Json::Type::kString) {
    if (std::optional<Enum> parsed = names.Find(value.AsString())) return *parsed;
  }
  if constexpr (N == 2) {
    throw BadRequest(
        StrFormat("'%s' must be '%s' or '%s'", key, names.names[0], names.names[1]));
  } else {
    std::vector<std::string> spellings(names.names.begin(), names.names.end());
    throw BadRequest(StrFormat("'%s' must be one of %s", key, Join(spellings, "|").c_str()));
  }
}

std::vector<double> ReadQuantiles(const Json& value) {
  if (value.type() != Json::Type::kArray || value.size() == 0 || value.size() > 32) {
    throw BadRequest("'q' must be an array of 1 to 32 quantiles");
  }
  std::vector<double> quantiles;
  quantiles.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (value[i].type() != Json::Type::kNumber) {
      throw BadRequest("'q' entries must be numbers");
    }
    double q = value[i].AsNumber();
    if (!(q >= 0.0 && q <= 1.0)) throw BadRequest("'q' entries must be in [0, 1]");
    quantiles.push_back(q);
  }
  return quantiles;
}

constexpr std::uint32_t Op(QueryKind kind) { return 1u << static_cast<unsigned>(kind); }

constexpr std::uint32_t kAllOps = (1u << kNumQueryKinds) - 1;
constexpr std::uint32_t kOriginOps =
    Op(QueryKind::kReach) | Op(QueryKind::kReliance) | Op(QueryKind::kHegemony) |
    Op(QueryKind::kFailure);
constexpr std::uint32_t kVictimOps = Op(QueryKind::kLeak) | Op(QueryKind::kLeakDist);

// One request key: the ops that take it and how its value is read.
struct Field {
  const char* key;
  std::uint32_t ops;
  void (*read)(const Json& value, const char* key, Request& request);
};

// `op` and `id` are read before the key loop; their rows only admit them.
constexpr Field kFields[] = {
    {"column", Op(QueryKind::kFailure),
     [](const Json& v, const char* k, Request& r) {
       r.fail_column = ReadEnum(kFailColumnNames, v, k);
     }},
    {"deadline_ms", Op(QueryKind::kReach) | Op(QueryKind::kReliance) | Op(QueryKind::kLeak),
     [](const Json& v, const char* k, Request& r) {
       r.deadline_ms = static_cast<std::int64_t>(ReadCount(v, k, kMaxDeadlineMs));
     }},
    {"excluded", Op(QueryKind::kReach),
     [](const Json& v, const char* k, Request& r) { r.excluded = ReadAsnList(v, k); }},
    {"format", Op(QueryKind::kMetrics),
     [](const Json& v, const char* k, Request& r) {
       r.format = ReadEnum(kMetricsFormatNames, v, k);
     }},
    {"id", kAllOps, [](const Json&, const char*, Request&) {}},
    {"k", Op(QueryKind::kReliance) | Op(QueryKind::kTop) | Op(QueryKind::kHegemony),
     [](const Json& v, const char* k, Request& r) { r.top_k = ReadCount(v, k, 100'000); }},
    {"leaker", Op(QueryKind::kLeak),
     [](const Json& v, const char* k, Request& r) { r.leaker = ReadAsn(v, k); }},
    {"lock_mode", Op(QueryKind::kReach) | Op(QueryKind::kLeak) | Op(QueryKind::kLeakDist),
     [](const Json& v, const char* k, Request& r) {
       r.lock_mode = ReadEnum(kPeerLockModeNames, v, k);
     }},
    {"metric", Op(QueryKind::kTop),
     [](const Json& v, const char* k, Request& r) {
       r.metric = ReadEnum(kTopMetricNames, v, k);
     }},
    {"mode", Op(QueryKind::kReach),
     [](const Json& v, const char* k, Request& r) {
       r.mode = ReadEnum(kReachModeNames, v, k);
     }},
    {"model", Op(QueryKind::kLeak) | Op(QueryKind::kLeakDist),
     [](const Json& v, const char* k, Request& r) {
       r.model = ReadEnum(kLeakModelNames, v, k);
     }},
    {"n", Op(QueryKind::kDebug),
     [](const Json& v, const char* k, Request& r) { r.debug_n = ReadCount(v, k, 100'000); }},
    {"op", kAllOps, [](const Json&, const char*, Request&) {}},
    {"origin", kOriginOps,
     [](const Json& v, const char* k, Request& r) { r.origin = ReadAsn(v, k); }},
    {"peer_locked", Op(QueryKind::kReach) | Op(QueryKind::kLeak),
     [](const Json& v, const char* k, Request& r) { r.peer_locked = ReadAsnList(v, k); }},
    {"q", Op(QueryKind::kLeakDist) | Op(QueryKind::kFailure),
     [](const Json& v, const char*, Request& r) { r.quantiles = ReadQuantiles(v); }},
    {"scenario", Op(QueryKind::kLeakDist),
     [](const Json& v, const char* k, Request& r) {
       r.scenario = ReadEnum(kLeakScenarioSlugs, v, k);
     }},
    {"scenario", Op(QueryKind::kFailure),
     [](const Json& v, const char* k, Request& r) {
       r.fail_scenario = ReadEnum(failsim::kFailScenarioNames, v, k);
     }},
    {"timing", kAllOps,
     [](const Json& v, const char*, Request& r) {
       if (v.type() != Json::Type::kBool) throw BadRequest("'timing' must be a boolean");
       r.timing = v.AsBool();
     }},
    {"victim", kVictimOps,
     [](const Json& v, const char* k, Request& r) { r.victim = ReadAsn(v, k); }},
};

// The row for `key` under `kind`, or null when that op takes no such key.
const Field* FindField(const std::string& key, QueryKind kind) {
  for (const Field& field : kFields) {
    if ((field.ops & Op(kind)) != 0 && key == field.key) return &field;
  }
  return nullptr;
}

void AppendAsnList(std::string& key, const char* tag, const std::vector<Asn>& asns) {
  if (asns.empty()) return;
  key += '|';
  key += tag;
  key += '=';
  for (std::size_t i = 0; i < asns.size(); ++i) {
    if (i > 0) key += ',';
    key += std::to_string(asns[i]);
  }
}

// The peer-locked set and its mode, when the request locks anyone.
void AppendPeerLock(std::string& key, const Request& request) {
  if (request.peer_locked.empty()) return;
  AppendAsnList(key, "pl", request.peer_locked);
  key += "|lk=";
  key += ToString(request.lock_mode);
}

}  // namespace

void ParseRequest(std::string_view line, Request& request) {
  Json doc;
  try {
    doc = Json::Parse(line);
  } catch (const ParseError& e) {
    throw BadRequest(std::string("malformed JSON: ") + e.what());
  }
  if (doc.type() != Json::Type::kObject) throw BadRequest("request must be a JSON object");
  request.id = doc.Get("id");

  const Json& op = doc.Get("op");
  if (op.type() != Json::Type::kString) throw BadRequest("missing string field 'op'");
  std::optional<QueryKind> kind = kQueryKindNames.Find(op.AsString());
  if (!kind) throw ProtocolError(ErrorCode::kUnknownOp, "unknown op '" + op.AsString() + "'");
  request.kind = *kind;

  for (const auto& [key, value] : doc.AsObject()) {
    const Field* field = FindField(key, request.kind);
    if (field == nullptr) {
      throw BadRequest(
          StrFormat("unknown field '%s' for op '%s'", key.c_str(), ToString(request.kind)));
    }
    field->read(value, field->key, request);
  }

  if (request.kind == QueryKind::kLeak) {
    if (request.victim == 0 || request.leaker == 0) {
      throw BadRequest("leak requires both 'victim' and 'leaker'");
    }
    if (request.victim == request.leaker) throw BadRequest("victim and leaker must differ");
  } else if ((kOriginOps & Op(request.kind)) != 0 && request.origin == 0) {
    throw BadRequest("missing required field 'origin'");
  } else if ((kVictimOps & Op(request.kind)) != 0 && request.victim == 0) {
    throw BadRequest("missing required field 'victim'");
  }
}

std::string CacheKey(const Request& request) {
  std::string key;
  switch (request.kind) {
    case QueryKind::kReach:
      key = "reach|o=";
      key += std::to_string(request.origin);
      key += "|m=";
      key += ToString(request.mode);
      AppendAsnList(key, "x", request.excluded);
      AppendPeerLock(key, request);
      break;
    case QueryKind::kReliance:
      key = "reliance|o=";
      key += std::to_string(request.origin);
      key += "|k=";
      key += std::to_string(request.top_k);
      break;
    case QueryKind::kLeak:
      key = "leak|v=";
      key += std::to_string(request.victim);
      key += "|l=";
      key += std::to_string(request.leaker);
      key += "|model=";
      key += ToString(request.model);
      AppendPeerLock(key, request);
      break;
    default: break;  // answered inline, never cached
  }
  return key;
}

std::string OkResponse(const Json& id, const std::string& result_json, bool cached) {
  return OkResponse(id, result_json, cached, nullptr);
}

std::string OkResponse(const Json& id, const std::string& result_json, bool cached,
                       const std::string* timing_json) {
  // Hand-assembled so the cached `result` bytes embed verbatim; key order
  // matches Json::Dump's sorted-key output for consistency ("timing" sorts
  // after "result", so the opt-in field appends without reordering — and
  // without it the bytes are identical to the pre-timing encoder).
  std::string out = "{\"cached\":";
  out += cached ? "true" : "false";
  out += ",\"id\":";
  out += id.Dump();
  out += ",\"ok\":true,\"result\":";
  out += result_json;
  if (timing_json != nullptr) {
    out += ",\"timing\":";
    out += *timing_json;
  }
  out += '}';
  return out;
}

std::string ErrorResponse(const Json& id, ErrorCode code, const std::string& message) {
  Json error = Json::MakeObject();
  error["code"] = ToString(code);
  error["message"] = message;
  Json doc = Json::MakeObject();
  doc["error"] = std::move(error);
  doc["id"] = id;
  doc["ok"] = false;
  return doc.Dump();
}

}  // namespace flatnet::serve
