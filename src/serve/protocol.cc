#include "serve/protocol.h"

#include <algorithm>

#include "util/strings.h"

namespace flatnet::serve {
namespace {

Asn AsnField(const Json& value, const char* key) {
  std::uint64_t raw;
  try {
    raw = value.AsU64();
  } catch (const Error&) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        StrFormat("'%s' must be a non-negative integer ASN", key));
  }
  if (raw == 0 || raw > 0xffffffffULL) {
    throw ProtocolError(ErrorCode::kBadRequest, StrFormat("'%s' is out of ASN range", key));
  }
  return static_cast<Asn>(raw);
}

std::vector<Asn> AsnListField(const Json& value, const char* key) {
  if (value.type() != Json::Type::kArray) {
    throw ProtocolError(ErrorCode::kBadRequest, StrFormat("'%s' must be an array", key));
  }
  std::vector<Asn> asns;
  asns.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) asns.push_back(AsnField(value[i], key));
  std::sort(asns.begin(), asns.end());
  asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  return asns;
}

PeerLockMode LockModeField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "full") return PeerLockMode::kFull;
    if (*text == "direct_only") return PeerLockMode::kDirectOnly;
  }
  throw ProtocolError(ErrorCode::kBadRequest, "'lock_mode' must be 'full' or 'direct_only'");
}

ReachMode ModeField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "full") return ReachMode::kFull;
    if (*text == "provider_free") return ReachMode::kProviderFree;
    if (*text == "tier1_free") return ReachMode::kTier1Free;
    if (*text == "hierarchy_free") return ReachMode::kHierarchyFree;
  }
  throw ProtocolError(
      ErrorCode::kBadRequest,
      "'mode' must be one of full|provider_free|tier1_free|hierarchy_free");
}

// "full" names no stored sweep column, so `metric` takes the other three
// ReachMode spellings only.
ReachMode MetricField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "provider_free") return ReachMode::kProviderFree;
    if (*text == "tier1_free") return ReachMode::kTier1Free;
    if (*text == "hierarchy_free") return ReachMode::kHierarchyFree;
  }
  throw ProtocolError(ErrorCode::kBadRequest,
                      "'metric' must be one of provider_free|tier1_free|hierarchy_free");
}

// Scenario slugs mirror flatnet_leaksim's --lock spellings plus
// "hierarchy" for the restricted-announcement scenario.
LeakScenario ScenarioField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "none") return LeakScenario::kAnnounceAll;
    if (*text == "t1") return LeakScenario::kAnnounceAllLockT1;
    if (*text == "t1t2") return LeakScenario::kAnnounceAllLockT1T2;
    if (*text == "global") return LeakScenario::kAnnounceAllLockGlobal;
    if (*text == "hierarchy") return LeakScenario::kAnnounceHierarchyOnly;
  }
  throw ProtocolError(ErrorCode::kBadRequest,
                      "'scenario' must be one of none|t1|t1t2|global|hierarchy");
}

std::vector<double> QuantilesField(const Json& value) {
  if (value.type() != Json::Type::kArray || value.size() == 0 || value.size() > 32) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "'q' must be an array of 1 to 32 quantiles");
  }
  std::vector<double> quantiles;
  quantiles.reserve(value.size());
  for (std::size_t i = 0; i < value.size(); ++i) {
    double q;
    try {
      q = value[i].AsNumber();
    } catch (const Error&) {
      throw ProtocolError(ErrorCode::kBadRequest, "'q' entries must be numbers");
    }
    if (!(q >= 0.0 && q <= 1.0)) {
      throw ProtocolError(ErrorCode::kBadRequest, "'q' entries must be in [0, 1]");
    }
    quantiles.push_back(q);
  }
  return quantiles;
}

// Scenario slugs mirror failsim::ToString / flatnet_failsim's --scenarios
// spellings.
failsim::FailScenario FailScenarioField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "single_as") return failsim::FailScenario::kSingleAs;
    if (*text == "tier1") return failsim::FailScenario::kTier1;
    if (*text == "hegemony_cascade") return failsim::FailScenario::kHegemonyCascade;
    if (*text == "link_set") return failsim::FailScenario::kLinkSet;
  }
  throw ProtocolError(ErrorCode::kBadRequest,
                      "'scenario' must be one of single_as|tier1|hegemony_cascade|link_set");
}

FailColumn FailColumnField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "loss_ases") return FailColumn::kLossAses;
    if (*text == "disconnected") return FailColumn::kDisconnected;
    if (*text == "loss_users") return FailColumn::kLossUsers;
  }
  throw ProtocolError(ErrorCode::kBadRequest,
                      "'column' must be one of loss_ases|disconnected|loss_users");
}

LeakModel ModelField(const Json& value) {
  const std::string* text = nullptr;
  try {
    text = &value.AsString();
  } catch (const Error&) {
  }
  if (text != nullptr) {
    if (*text == "reannounce") return LeakModel::kReannounce;
    if (*text == "originate") return LeakModel::kOriginate;
  }
  throw ProtocolError(ErrorCode::kBadRequest, "'model' must be 'reannounce' or 'originate'");
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

}  // namespace

const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownOp: return "unknown_op";
    case ErrorCode::kUnknownAsn: return "unknown_asn";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

const char* ToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kReach: return "reach";
    case QueryKind::kReliance: return "reliance";
    case QueryKind::kLeak: return "leak";
    case QueryKind::kStatus: return "status";
    case QueryKind::kTop: return "top";
    case QueryKind::kLeakDist: return "leakdist";
    case QueryKind::kMetrics: return "metrics";
    case QueryKind::kDebug: return "debug";
    case QueryKind::kHegemony: return "hegemony";
    case QueryKind::kFailure: return "failure";
  }
  return "status";
}

const char* ToString(FailColumn column) {
  switch (column) {
    case FailColumn::kLossAses: return "loss_ases";
    case FailColumn::kDisconnected: return "disconnected";
    case FailColumn::kLossUsers: return "loss_users";
  }
  return "loss_ases";
}

const char* ToString(ReachMode mode) {
  switch (mode) {
    case ReachMode::kFull: return "full";
    case ReachMode::kProviderFree: return "provider_free";
    case ReachMode::kTier1Free: return "tier1_free";
    case ReachMode::kHierarchyFree: return "hierarchy_free";
  }
  return "hierarchy_free";
}

Request ParseRequest(std::string_view line) {
  Json doc;
  try {
    doc = Json::Parse(line);
  } catch (const ParseError& e) {
    throw ProtocolError(ErrorCode::kBadRequest, std::string("malformed JSON: ") + e.what());
  }
  return RequestFromJson(doc);
}

Request RequestFromJson(const Json& doc) {
  if (doc.type() != Json::Type::kObject) {
    throw ProtocolError(ErrorCode::kBadRequest, "request must be a JSON object");
  }
  const Json::Object& object = doc.AsObject();

  auto op_it = object.find("op");
  if (op_it == object.end() || op_it->second.type() != Json::Type::kString) {
    throw ProtocolError(ErrorCode::kBadRequest, "missing string field 'op'");
  }
  const std::string& op = op_it->second.AsString();

  Request request;
  if (op == "reach") {
    request.kind = QueryKind::kReach;
  } else if (op == "reliance") {
    request.kind = QueryKind::kReliance;
  } else if (op == "leak") {
    request.kind = QueryKind::kLeak;
  } else if (op == "status") {
    request.kind = QueryKind::kStatus;
  } else if (op == "top") {
    request.kind = QueryKind::kTop;
  } else if (op == "leakdist") {
    request.kind = QueryKind::kLeakDist;
  } else if (op == "metrics") {
    request.kind = QueryKind::kMetrics;
  } else if (op == "debug") {
    request.kind = QueryKind::kDebug;
  } else if (op == "hegemony") {
    request.kind = QueryKind::kHegemony;
  } else if (op == "failure") {
    request.kind = QueryKind::kFailure;
  } else {
    throw ProtocolError(ErrorCode::kUnknownOp, "unknown op '" + op + "'");
  }

  bool have_origin = false;
  bool have_victim = false;
  bool have_leaker = false;
  for (const auto& [key, value] : object) {
    if (key == "op") continue;
    if (key == "id") {
      request.id = value;
      continue;
    }
    if (key == "timing") {
      if (value.type() != Json::Type::kBool) {
        throw ProtocolError(ErrorCode::kBadRequest, "'timing' must be a boolean");
      }
      request.timing = value.AsBool();
      continue;
    }
    if (key == "deadline_ms" &&
        (request.kind == QueryKind::kReach || request.kind == QueryKind::kReliance ||
         request.kind == QueryKind::kLeak)) {
      std::uint64_t ms;
      try {
        ms = value.AsU64();
      } catch (const Error&) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "'deadline_ms' must be a positive integer");
      }
      if (ms == 0 || ms > static_cast<std::uint64_t>(kMaxDeadlineMs)) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            StrFormat("'deadline_ms' must be in [1, %lld]",
                                      static_cast<long long>(kMaxDeadlineMs)));
      }
      request.deadline_ms = static_cast<std::int64_t>(ms);
      continue;
    }
    bool handled = false;
    switch (request.kind) {
      case QueryKind::kReach:
        if (key == "origin") {
          request.origin = AsnField(value, "origin");
          have_origin = handled = true;
        } else if (key == "mode") {
          request.mode = ModeField(value);
          handled = true;
        } else if (key == "excluded") {
          request.excluded = AsnListField(value, "excluded");
          handled = true;
        } else if (key == "peer_locked") {
          request.peer_locked = AsnListField(value, "peer_locked");
          handled = true;
        } else if (key == "lock_mode") {
          request.lock_mode = LockModeField(value);
          handled = true;
        }
        break;
      case QueryKind::kReliance:
        if (key == "origin") {
          request.origin = AsnField(value, "origin");
          have_origin = handled = true;
        } else if (key == "k") {
          std::uint64_t k;
          try {
            k = value.AsU64();
          } catch (const Error&) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be a positive integer");
          }
          if (k == 0 || k > 100'000) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be in [1, 100000]");
          }
          request.top_k = static_cast<std::size_t>(k);
          handled = true;
        }
        break;
      case QueryKind::kLeak:
        if (key == "victim") {
          request.victim = AsnField(value, "victim");
          have_victim = handled = true;
        } else if (key == "leaker") {
          request.leaker = AsnField(value, "leaker");
          have_leaker = handled = true;
        } else if (key == "model") {
          request.model = ModelField(value);
          handled = true;
        } else if (key == "peer_locked") {
          request.peer_locked = AsnListField(value, "peer_locked");
          handled = true;
        } else if (key == "lock_mode") {
          request.lock_mode = LockModeField(value);
          handled = true;
        }
        break;
      case QueryKind::kTop:
        if (key == "k") {
          std::uint64_t k;
          try {
            k = value.AsU64();
          } catch (const Error&) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be a positive integer");
          }
          if (k == 0 || k > 100'000) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be in [1, 100000]");
          }
          request.top_k = static_cast<std::size_t>(k);
          handled = true;
        } else if (key == "metric") {
          request.metric = MetricField(value);
          handled = true;
        }
        break;
      case QueryKind::kLeakDist:
        if (key == "victim") {
          request.victim = AsnField(value, "victim");
          have_victim = handled = true;
        } else if (key == "scenario") {
          request.scenario = ScenarioField(value);
          handled = true;
        } else if (key == "lock_mode") {
          request.lock_mode = LockModeField(value);
          handled = true;
        } else if (key == "model") {
          request.model = ModelField(value);
          handled = true;
        } else if (key == "q") {
          request.quantiles = QuantilesField(value);
          handled = true;
        }
        break;
      case QueryKind::kMetrics:
        if (key == "format") {
          const std::string* text = nullptr;
          try {
            text = &value.AsString();
          } catch (const Error&) {
          }
          if (text != nullptr && *text == "json") {
            request.prometheus = false;
          } else if (text != nullptr && *text == "prometheus") {
            request.prometheus = true;
          } else {
            throw ProtocolError(ErrorCode::kBadRequest,
                                "'format' must be 'json' or 'prometheus'");
          }
          handled = true;
        }
        break;
      case QueryKind::kDebug:
        if (key == "n") {
          std::uint64_t n;
          try {
            n = value.AsU64();
          } catch (const Error&) {
            throw ProtocolError(ErrorCode::kBadRequest, "'n' must be a positive integer");
          }
          if (n == 0 || n > 100'000) {
            throw ProtocolError(ErrorCode::kBadRequest, "'n' must be in [1, 100000]");
          }
          request.debug_n = static_cast<std::size_t>(n);
          handled = true;
        }
        break;
      case QueryKind::kHegemony:
        if (key == "origin") {
          request.origin = AsnField(value, "origin");
          have_origin = handled = true;
        } else if (key == "k") {
          std::uint64_t k;
          try {
            k = value.AsU64();
          } catch (const Error&) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be a positive integer");
          }
          if (k == 0 || k > 100'000) {
            throw ProtocolError(ErrorCode::kBadRequest, "'k' must be in [1, 100000]");
          }
          request.top_k = static_cast<std::size_t>(k);
          handled = true;
        }
        break;
      case QueryKind::kFailure:
        if (key == "origin") {
          request.origin = AsnField(value, "origin");
          have_origin = handled = true;
        } else if (key == "scenario") {
          request.fail_scenario = FailScenarioField(value);
          handled = true;
        } else if (key == "column") {
          request.fail_column = FailColumnField(value);
          handled = true;
        } else if (key == "q") {
          request.quantiles = QuantilesField(value);
          handled = true;
        }
        break;
      case QueryKind::kStatus:
        break;
    }
    if (!handled) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          StrFormat("unknown field '%s' for op '%s'", key.c_str(), op.c_str()));
    }
  }

  switch (request.kind) {
    case QueryKind::kReach:
    case QueryKind::kReliance:
    case QueryKind::kHegemony:
    case QueryKind::kFailure:
      if (!have_origin) {
        throw ProtocolError(ErrorCode::kBadRequest, "missing required field 'origin'");
      }
      break;
    case QueryKind::kLeak:
      if (!have_victim || !have_leaker) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "leak requires both 'victim' and 'leaker'");
      }
      if (request.victim == request.leaker) {
        throw ProtocolError(ErrorCode::kBadRequest, "victim and leaker must differ");
      }
      break;
    case QueryKind::kLeakDist:
      if (!have_victim) {
        throw ProtocolError(ErrorCode::kBadRequest, "missing required field 'victim'");
      }
      break;
    case QueryKind::kStatus:
    case QueryKind::kTop:
    case QueryKind::kMetrics:
    case QueryKind::kDebug:
      break;
  }
  return request;
}

std::string CacheKey(const Request& request) {
  std::string key;
  switch (request.kind) {
    case QueryKind::kStatus:
    case QueryKind::kTop:
    case QueryKind::kLeakDist:
    case QueryKind::kMetrics:
    case QueryKind::kDebug:
    case QueryKind::kHegemony:
    case QueryKind::kFailure:
      return key;  // answered inline, never cached
    case QueryKind::kReach:
      key = "reach|o=";
      key += std::to_string(request.origin);
      key += "|m=";
      key += ToString(request.mode);
      AppendAsnList(key, "x", request.excluded);
      if (!request.peer_locked.empty()) {
        AppendAsnList(key, "pl", request.peer_locked);
        key += "|lk=";
        key += request.lock_mode == PeerLockMode::kFull ? "full" : "direct_only";
      }
      return key;
    case QueryKind::kReliance:
      key = "reliance|o=";
      key += std::to_string(request.origin);
      key += "|k=";
      key += std::to_string(request.top_k);
      return key;
    case QueryKind::kLeak:
      key = "leak|v=";
      key += std::to_string(request.victim);
      key += "|l=";
      key += std::to_string(request.leaker);
      key += "|model=";
      key += request.model == LeakModel::kReannounce ? "reannounce" : "originate";
      if (!request.peer_locked.empty()) {
        AppendAsnList(key, "pl", request.peer_locked);
        key += "|lk=";
        key += request.lock_mode == PeerLockMode::kFull ? "full" : "direct_only";
      }
      return key;
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
