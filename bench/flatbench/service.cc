#include "service.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "bgp/leak.h"
#include "campaign.h"
#include "core/graph_store.h"
#include "core/leak_scenarios.h"
#include "failsim/engine.h"
#include "fleet/ring.h"
#include "leaksim/engine.h"
#include "serve/dispatcher.h"
#include "sweep/engine.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flatbench {

using flatnet::AsId;
using flatnet::Asn;
using flatnet::Error;
using flatnet::Internet;
using flatnet::Json;
using flatnet::Rng;
using flatnet::StrFormat;

namespace {

constexpr std::uint64_t kInputSeed = 42;
constexpr int kConnections = 4;
// Closed-loop capacity probes: requests kept in flight (enough to saturate
// the server, below its admission mark of 64), and the leading share of
// each probe excluded while the pipeline fills.
constexpr int kCapacityOutstanding = 48;
constexpr double kCapacityRampS = 0.1;
constexpr int kWarmupOutstanding = 8;
// A request still unanswered this long after the last send has failed.
constexpr double kDrainS = 2.0;
// Unmeasured traffic sent after each measured open-loop span.
constexpr double kTailS = 0.25;
// The measured window and the capacity probe are interleaved in this many
// rounds, so both sample the host at several moments of the run: on the
// reference host a single thread's speed swings by up to 1.9x for a
// second or two at a time, and the generator itself is sometimes held
// off its CPU for milliseconds. Each round's window segment is cut into
// kSlicesPerRound slices; the quarter of slices with the highest p99 is
// dropped as host noise, and p50/p99 are taken over the requests of the
// rest pooled, so the pool keeps dozens of samples beyond its p99.
constexpr int kRounds = 4;
constexpr int kSlicesPerRound = 4;
constexpr double kVerifyShare = 0.05;
constexpr std::size_t kHotSetSize = 16;
constexpr double kHotShare = 0.7;
// Failed requests count as missing every latency limit; JSON cannot carry
// infinity, so they enter the percentiles at this many milliseconds.
constexpr double kFailedLatencyMs = 1e6;

struct ServiceSpec {
  double rate;   // pinned offered load, requests/s
  bool cold;     // every key distinct vs the hot mix
  bool fleet;    // 3 shards + router vs one server
  int threads;   // dispatcher threads per server process
  int cache_mb;  // 0 = the server's default budget
};

ServiceSpec SpecFor(ServiceKind kind) {
  switch (kind) {
    case ServiceKind::kServeHot: return {2000.0, false, false, 2, 0};
    case ServiceKind::kServeCold: return {600.0, true, false, 2, 8};
    case ServiceKind::kFleetHot: return {1000.0, false, true, 1, 0};
  }
  return {};
}

// ---- inputs ---------------------------------------------------------------

void BuildServiceInputs(const Settings& settings, const ServiceInputs& in,
                        const std::string& manifest_path) {
  std::fprintf(stderr, "flatbench: building service inputs (%u ASes) in %s\n",
               settings.service_ases, manifest_path.c_str());
  Internet internet = GenerateInternet(settings.service_ases);
  flatnet::SaveInternetBinary(internet, in.graph_path);
  std::uint32_t n = static_cast<std::uint32_t>(internet.num_ases());

  flatnet::sweep::SweepOptions sweep_options;
  sweep_options.threads = 2;
  flatnet::sweep::FinalizeSweepStore(in.sweep_path,
                                     flatnet::sweep::RunSweep(internet, sweep_options));

  Rng rng(kInputSeed ^ 0x1eafu);
  std::vector<flatnet::leaksim::LeakCellSpec> leak_cells;
  Json victims = Json::MakeArray();
  for (std::uint32_t victim : rng.SampleWithoutReplacement(n, 4)) {
    victims.Append(Json(internet.graph().AsnOf(victim)));
    for (std::size_t s = 0; s < flatnet::kNumLeakScenarios; ++s) {
      flatnet::leaksim::LeakCellSpec spec;
      spec.victim = victim;
      spec.scenario = static_cast<flatnet::LeakScenario>(s);
      spec.seed = rng.NextU64();
      spec.trials = 40;
      leak_cells.push_back(spec);
    }
  }
  flatnet::leaksim::LeakCampaignOptions leak_options;
  leak_options.threads = 2;
  flatnet::leaksim::FinalizeLeakStore(
      in.leak_path, flatnet::leaksim::RunLeakCampaign(internet, leak_cells, leak_options));

  std::vector<flatnet::failsim::FailCellSpec> fail_cells;
  Json origins = Json::MakeArray();
  Json scenarios = Json::MakeArray();
  for (std::size_t s = 0; s < flatnet::failsim::kNumFailScenarios; ++s) {
    auto scenario = static_cast<flatnet::failsim::FailScenario>(s);
    scenarios.Append(Json(flatnet::failsim::ToString(scenario)));
  }
  for (std::uint32_t origin : rng.SampleWithoutReplacement(n, 4)) {
    origins.Append(Json(internet.graph().AsnOf(origin)));
    for (std::size_t s = 0; s < flatnet::failsim::kNumFailScenarios; ++s) {
      flatnet::failsim::FailCellSpec spec;
      spec.origin = origin;
      spec.scenario = static_cast<flatnet::failsim::FailScenario>(s);
      bool links = spec.scenario == flatnet::failsim::FailScenario::kLinkSet;
      spec.severity = links ? 2 : 0;
      spec.seed = rng.NextU64();
      spec.trials = links ? 4 : 16;
      fail_cells.push_back(spec);
    }
  }
  flatnet::failsim::FailCampaignOptions fail_options;
  fail_options.threads = 2;
  flatnet::failsim::FinalizeFailStore(
      in.fail_path, flatnet::failsim::RunFailureCampaign(internet, fail_cells, fail_options));

  Json digests = Json::MakeObject();
  digests["graph"] = FileDigest(in.graph_path);
  digests["sweep"] = FileDigest(in.sweep_path);
  digests["leak"] = FileDigest(in.leak_path);
  digests["fail"] = FileDigest(in.fail_path);
  Json manifest = Json::MakeObject();
  manifest["digests"] = std::move(digests);
  manifest["fail_origins"] = std::move(origins);
  manifest["fail_scenarios"] = std::move(scenarios);
  manifest["leak_victims"] = std::move(victims);
  // Written last: its presence means every store above is complete.
  WriteFile(manifest_path, manifest.Dump(2));
}

// ---- request mixes --------------------------------------------------------

enum Op : std::uint8_t {
  kReach,
  kReliance,
  kLeak,
  kTop,
  kLeakDist,
  kHegemony,
  kFailure,
  kStatus,
};
constexpr std::size_t kNumOps = 8;
constexpr const char* kOpNames[kNumOps] = {"reach",    "reliance", "leak",    "top",
                                           "leakdist", "hegemony", "failure", "status"};
constexpr const char* kModes[] = {"full", "provider_free", "tier1_free", "hierarchy_free"};
constexpr const char* kTopMetrics[] = {"provider_free", "tier1_free", "hierarchy_free"};
constexpr const char* kLeakScenarioSlugs[] = {"none", "t1", "t1t2", "global", "hierarchy"};

struct Req {
  std::string body;  // the request object up to, not including, its id and closing brace
  Op op = kStatus;
  Asn key = 0;  // the ASN the fleet ring routes on, for keyed ops
  bool keyed = false;
  bool verify = false;  // in the seeded sample checked against the reference
};

// Generates requests for one workload. The hot mix is flatnet_loadgen's
// production mix plus leakdist: every query op, with 70% of keyed
// requests drawn from a 16-AS hot set so the result cache sees repeats.
// The cold mix is reach/reliance/leak 65/20/15 with no key ever repeated.
// Every leak pair is checked with LeakExperiment::CanLeak, the server's
// own condition, so no request is expected to fail.
class Mix {
 public:
  Mix(const ServiceInputs& in, bool cold, std::uint64_t seed)
      : in_(in),
        graph_(in.internet.graph()),
        cold_(cold),
        rng_(seed * 0x9e3779b97f4a7c15ull + 11),
        verify_rng_(seed ^ 0x5eed5eedull) {
    std::size_t n = graph_.num_ases();
    for (AsId id = 0; id < n; ++id) asns_.push_back(graph_.AsnOf(id));
    if (cold_) {
      reach_pool_.resize(n * 4);
      std::iota(reach_pool_.begin(), reach_pool_.end(), 0u);
      rng_.Shuffle(reach_pool_);
      reliance_pool_.resize(n);
      std::iota(reliance_pool_.begin(), reliance_pool_.end(), 0u);
      rng_.Shuffle(reliance_pool_);
    } else {
      for (std::size_t i = 0; i < kHotSetSize; ++i) hot_.push_back(asns_[rng_.UniformU64(n)]);
    }
  }

  Req Next() {
    Req req = cold_ ? Cold() : Hot();
    req.verify = req.op != kStatus && verify_rng_.Bernoulli(kVerifyShare);
    return req;
  }

 private:
  Asn Pick(const std::vector<Asn>& pool) { return pool[rng_.UniformU64(pool.size())]; }
  Asn Origin() { return rng_.Bernoulli(kHotShare) ? Pick(hot_) : Pick(asns_); }

  static Req Make(Op op, std::string body, std::optional<Asn> key) {
    Req req;
    req.op = op;
    req.body = std::move(body);
    if (key) {
      req.keyed = true;
      req.key = *key;
    }
    return req;
  }

  static Req LeakReq(Asn victim, Asn leaker) {
    return Make(kLeak, StrFormat(R"({"op":"leak","victim":%u,"leaker":%u)", victim, leaker),
                victim);
  }

  bool CanLeak(Asn victim, Asn leaker) {
    if (victim == leaker) return false;
    AsId v = *graph_.IdOf(victim);
    AsId l = *graph_.IdOf(leaker);
    if (std::find(hot_.begin(), hot_.end(), victim) != hot_.end()) {
      auto& experiment = hot_experiments_[v];
      if (!experiment) {
        experiment =
            std::make_unique<flatnet::LeakExperiment>(graph_, v, flatnet::LeakConfig{});
      }
      return experiment->CanLeak(l);
    }
    return flatnet::LeakExperiment(graph_, v, flatnet::LeakConfig{}).CanLeak(l);
  }

  Req Hot() {
    std::uint64_t roll = rng_.UniformU64(100);
    if (roll < 30) {
      Asn o = Origin();
      return Make(kReach,
                  StrFormat(R"({"op":"reach","origin":%u,"mode":"%s")", o,
                            kModes[rng_.UniformU64(4)]),
                  o);
    }
    if (roll < 50) {
      Asn o = Origin();
      return Make(kReliance, StrFormat(R"({"op":"reliance","origin":%u,"k":10)", o), o);
    }
    if (roll < 65) {
      for (int attempt = 0; attempt < 10000; ++attempt) {
        Asn victim = Origin();
        Asn leaker = Origin();
        if (CanLeak(victim, leaker)) return LeakReq(victim, leaker);
      }
      throw Error("no leakable pair found in 10000 draws");
    }
    if (roll < 75) {
      return Make(kTop,
                  StrFormat(R"({"op":"top","k":%llu,"metric":"%s")",
                            static_cast<unsigned long long>(1 + rng_.UniformU64(20)),
                            kTopMetrics[rng_.UniformU64(3)]),
                  std::nullopt);
    }
    if (roll < 80) {
      Asn victim = Pick(in_.leak_victims);
      return Make(kLeakDist,
                  StrFormat(R"({"op":"leakdist","victim":%u,"scenario":"%s","q":[0.5,0.9])",
                            victim, kLeakScenarioSlugs[rng_.UniformU64(5)]),
                  victim);
    }
    if (roll < 85) {
      Asn o = Pick(in_.fail_origins);
      return Make(kHegemony,
                  StrFormat(R"({"op":"hegemony","origin":%u,"k":%llu)", o,
                            static_cast<unsigned long long>(1 + rng_.UniformU64(10))),
                  o);
    }
    if (roll < 90) {
      Asn o = Pick(in_.fail_origins);
      const std::string& scenario =
          in_.fail_scenarios[rng_.UniformU64(in_.fail_scenarios.size())];
      return Make(kFailure,
                  StrFormat(R"({"op":"failure","origin":%u,"scenario":"%s","column":"%s",)"
                            R"("q":[0.5,0.9])",
                            o, scenario.c_str(),
                            rng_.Bernoulli(0.5) ? "disconnected" : "loss_ases"),
                  o);
    }
    return Make(kStatus, R"({"op":"status")", std::nullopt);
  }

  Req Cold() {
    std::uint64_t roll = rng_.UniformU64(100);
    if (roll < 65) {
      std::uint32_t entry = reach_pool_[reach_next_++ % reach_pool_.size()];
      Asn o = asns_[entry / 4];
      return Make(kReach,
                  StrFormat(R"({"op":"reach","origin":%u,"mode":"%s")", o, kModes[entry % 4]),
                  o);
    }
    if (roll < 85) {
      Asn o = asns_[reliance_pool_[reliance_next_++ % reliance_pool_.size()]];
      return Make(kReliance, StrFormat(R"({"op":"reliance","origin":%u,"k":10)", o), o);
    }
    for (int attempt = 0; attempt < 10000; ++attempt) {
      Asn victim = Pick(asns_);
      Asn leaker = Pick(asns_);
      std::uint64_t key = (std::uint64_t{victim} << 32) | leaker;
      if (leak_used_.count(key) != 0 || !CanLeak(victim, leaker)) continue;
      leak_used_.insert(key);
      return LeakReq(victim, leaker);
    }
    throw Error("no fresh leakable pair found in 10000 draws");
  }

  const ServiceInputs& in_;
  const flatnet::AsGraph& graph_;
  bool cold_;
  Rng rng_;
  Rng verify_rng_;
  std::vector<Asn> asns_;
  std::vector<Asn> hot_;
  std::map<AsId, std::unique_ptr<flatnet::LeakExperiment>> hot_experiments_;
  std::vector<std::uint32_t> reach_pool_;  // origin id * 4 + mode
  std::size_t reach_next_ = 0;
  std::vector<std::uint32_t> reliance_pool_;
  std::size_t reliance_next_ = 0;
  std::unordered_set<std::uint64_t> leak_used_;
};

// ---- the load generator ---------------------------------------------------

struct Outcome {
  Clock::time_point due{};   // scheduled send time (open loop) or send time
  Clock::time_point sent{};
  Clock::time_point recv{};
  double at_s = 0.0;  // `due`, in seconds from the start of the phase
  // Sent after the measured span only to keep traffic flowing, so the
  // span's last answers are not held back by an idle connection.
  bool tail = false;
  std::uint32_t req = 0;  // index into the request list
  std::int8_t state = 0;  // 0 unanswered, 1 ok, -1 error
  bool cached = false;
  std::string timing;  // the response's `timing` object, when requested
};

// Id of a response line: the top-level "id" follows "cached" in an ok
// response and is the next-to-last key of an error response.
std::optional<std::uint64_t> ResponseId(std::string_view line) {
  std::size_t at = flatnet::StartsWith(line, "{\"cached\":") ? line.find(",\"id\":")
                                                              : line.rfind(",\"id\":");
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view digits = line.substr(at + 6);
  std::size_t end = 0;
  while (end < digits.size() && digits[end] >= '0' && digits[end] <= '9') ++end;
  return flatnet::ParseU64(digits.substr(0, end));
}

// One thread, poll(), kConnections persistent connections. Requests are
// pipelined round-robin across the connections and matched back by id.
class Session {
 public:
  explicit Session(std::uint16_t port) {
    for (Conn& conn : conns_) {
      conn.fd = ConnectLoopback(port);
      SetNonBlocking(conn.fd);
    }
  }
  ~Session() {
    for (Conn& conn : conns_) ::close(conn.fd);
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Poisson arrivals at `rate` for `duration_s`; each request is timed from
  // its scheduled send time.
  std::vector<Outcome> OpenLoop(Mix& mix, std::vector<Req>& reqs, double rate,
                                double duration_s, bool timing, Rng& arrivals) {
    Plan plan;
    plan.timing = timing;
    plan.measured_s = duration_s;
    for (double t = arrivals.Exponential(1.0 / rate); t < duration_s + kTailS;
         t += arrivals.Exponential(1.0 / rate)) {
      plan.due_s.push_back(t);
      plan.req.push_back(static_cast<std::uint32_t>(reqs.size()));
      reqs.push_back(mix.Next());
    }
    return Pump(plan, reqs, nullptr);
  }

  // `outstanding` requests kept in flight for `duration_s`.
  std::vector<Outcome> ClosedLoop(Mix& mix, std::vector<Req>& reqs, int outstanding,
                                  double duration_s) {
    Plan plan;
    plan.outstanding = outstanding;
    plan.duration_s = duration_s;
    return Pump(plan, reqs, &mix);
  }

  // Raw response lines of requests flagged `verify`, by request index.
  const std::map<std::uint32_t, std::string>& verify_lines() const { return verify_lines_; }
  // The first few error responses, for the run's details.
  const std::vector<std::string>& error_samples() const { return error_samples_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_off = 0;
    std::string in;
  };
  struct Plan {
    std::vector<double> due_s;       // open loop: send offsets from the start
    std::vector<std::uint32_t> req;  // open loop: the request of each arrival
    double measured_s = 0.0;         // open loop: arrivals after this are tail
    int outstanding = 0;             // closed loop when > 0
    double duration_s = 0.0;
    bool timing = false;
  };

  static void Flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                         conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        return;
      } else {
        throw Error(StrFormat("send: %s", std::strerror(errno)));
      }
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  std::vector<Outcome> Pump(const Plan& plan, std::vector<Req>& reqs, Mix* mix) {
    std::vector<Outcome> outcomes;
    const std::uint64_t id_base = next_id_;
    const bool closed = plan.outstanding > 0;
    const Clock::time_point start = Clock::now();
    auto at = [&](double s) { return start + Seconds(s); };
    const Clock::time_point stop =
        at(closed ? plan.duration_s : (plan.due_s.empty() ? 0.0 : plan.due_s.back()));
    const Clock::time_point deadline = stop + Seconds(kDrainS);
    std::size_t next_due = 0;
    std::size_t pending = 0;
    int rr = 0;

    auto send = [&](int c, std::uint32_t req, Clock::time_point due) {
      Conn& conn = conns_[c];
      conn.out += reqs[req].body;
      conn.out += ",\"id\":";
      conn.out += std::to_string(next_id_++);
      if (plan.timing) conn.out += ",\"timing\":true";
      conn.out += "}\n";
      Outcome outcome;
      outcome.due = due;
      outcome.at_s = std::chrono::duration<double>(due - start).count();
      outcome.tail = !closed && outcome.at_s >= plan.measured_s;
      outcome.req = req;
      outcome.sent = Clock::now();
      outcomes.push_back(std::move(outcome));
      ++pending;
      Flush(conn);
    };
    auto next_closed = [&] {
      reqs.push_back(mix->Next());
      return static_cast<std::uint32_t>(reqs.size() - 1);
    };

    if (closed) {
      for (int k = 0; k < plan.outstanding; ++k) {
        send(k % kConnections, next_closed(), Clock::now());
      }
    }
    char chunk[65536];
    for (;;) {
      Clock::time_point now = Clock::now();
      while (!closed && next_due < plan.due_s.size() && at(plan.due_s[next_due]) <= now) {
        send(rr, plan.req[next_due], at(plan.due_s[next_due]));
        rr = (rr + 1) % kConnections;
        ++next_due;
      }
      bool sending_done = closed ? now >= stop : next_due == plan.due_s.size();
      if ((sending_done && pending == 0) || now >= deadline) break;

      Clock::time_point wake = deadline;
      if (!closed && next_due < plan.due_s.size()) {
        wake = std::min(wake, at(plan.due_s[next_due]));
      }
      auto wait_ns = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - Clock::now()).count());
      timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                       static_cast<long>(wait_ns % 1000000000)};
      pollfd pfds[kConnections];
      for (int c = 0; c < kConnections; ++c) {
        pfds[c] = {conns_[c].fd,
                   static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT)), 0};
      }
      int ready = ::ppoll(pfds, kConnections, &timeout, nullptr);
      if (ready < 0 && errno != EINTR) {
        throw Error(StrFormat("ppoll: %s", std::strerror(errno)));
      }
      if (ready <= 0) continue;

      for (int c = 0; c < kConnections; ++c) {
        if (pfds[c].revents & POLLOUT) Flush(conns_[c]);
        if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Conn& conn = conns_[c];
        for (;;) {
          ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
          if (n > 0) {
            conn.in.append(chunk, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) break;
          throw Error("the server closed a load-generator connection");
        }
        Clock::time_point recv_at = Clock::now();
        std::size_t begin = 0;
        for (std::size_t nl; (nl = conn.in.find('\n', begin)) != std::string::npos;
             begin = nl + 1) {
          std::string_view line(conn.in.data() + begin, nl - begin);
          std::optional<std::uint64_t> id = ResponseId(line);
          if (!id || *id < id_base || *id - id_base >= outcomes.size()) continue;
          Outcome& outcome = outcomes[*id - id_base];
          if (outcome.state != 0) continue;
          outcome.recv = recv_at;
          bool ok = flatnet::StartsWith(line, "{\"cached\":");
          outcome.state = ok ? 1 : -1;
          outcome.cached = flatnet::StartsWith(line, "{\"cached\":true");
          if (ok && plan.timing) {
            std::size_t t = line.rfind(",\"timing\":");
            if (t != std::string_view::npos) {
              outcome.timing = std::string(line.substr(t + 10, line.size() - t - 11));
            }
          }
          if (reqs[outcome.req].verify) verify_lines_[outcome.req] = std::string(line);
          if (!ok && error_samples_.size() < 5) error_samples_.emplace_back(line);
          --pending;
          if (closed && recv_at < stop) send(c, next_closed(), Clock::now());
        }
        conn.in.erase(0, begin);
      }
    }
    return outcomes;
  }

  Conn conns_[kConnections];
  std::uint64_t next_id_ = 1;
  std::map<std::uint32_t, std::string> verify_lines_;
  std::vector<std::string> error_samples_;
};

// A fresh server runs slower for its first second or so (page-ins, pool
// and allocator warm-up) and would shed an open-loop burst at the pinned
// rate. The first half of the warm-up is therefore closed-loop, at a
// concurrency admission control never refuses; the second half runs the
// pinned open-loop rate.
std::vector<Outcome> WarmUp(Session& session, Mix& mix, std::vector<Req>& reqs, double rate,
                            double warmup_s, Rng& arrivals) {
  std::vector<Outcome> warm = session.ClosedLoop(mix, reqs, kWarmupOutstanding, warmup_s / 2);
  std::vector<Outcome> open = session.OpenLoop(mix, reqs, rate, warmup_s / 2, false, arrivals);
  warm.insert(warm.end(), std::make_move_iterator(open.begin()),
              std::make_move_iterator(open.end()));
  return warm;
}

// Latency of each request from its due time; failures count as
// kFailedLatencyMs so they miss every limit.
std::vector<double> Latencies(const std::vector<Outcome>& outcomes, int op = -1,
                              const std::vector<Req>* reqs = nullptr) {
  std::vector<double> ms;
  for (const Outcome& o : outcomes) {
    if (o.tail || (op >= 0 && (*reqs)[o.req].op != op)) continue;
    ms.push_back(o.state == 1 ? MsBetween(o.due, o.recv) : kFailedLatencyMs);
  }
  return ms;
}

// Latencies of the requests in all but the quarter of `slices` with the
// highest p99.
std::vector<double> QuietLatencies(const std::vector<std::vector<Outcome>>& slices) {
  std::vector<std::pair<double, std::vector<double>>> ranked;  // (slice p99, latencies)
  for (const std::vector<Outcome>& slice : slices) {
    std::vector<double> ms = Latencies(slice);
    ranked.emplace_back(Q(ms, 0.99), std::move(ms));
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<double> pooled;
  for (std::size_t i = 0; i < ranked.size() - ranked.size() / 4; ++i) {
    pooled.insert(pooled.end(), ranked[i].second.begin(), ranked[i].second.end());
  }
  return pooled;
}

std::vector<double> Lateness(const std::vector<Outcome>& outcomes) {
  std::vector<double> ms;
  for (const Outcome& o : outcomes) {
    if (!o.tail) ms.push_back(MsBetween(o.due, o.sent));
  }
  return ms;
}

void Count(const std::vector<Outcome>& outcomes, RunResult& result) {
  for (const Outcome& o : outcomes) {
    ++result.attempted;
    if (o.state != 1) ++result.failed;
  }
}

// Ok answers per second received in the `seconds` after the ramp.
double ClosedLoopThroughput(const std::vector<Outcome>& outcomes, double seconds) {
  if (outcomes.empty()) return 0.0;
  Clock::time_point from = outcomes.front().sent + Seconds(kCapacityRampS);
  Clock::time_point to = from + Seconds(seconds);
  auto done = std::count_if(outcomes.begin(), outcomes.end(), [&](const Outcome& o) {
    return o.state == 1 && o.recv >= from && o.recv < to;
  });
  return static_cast<double>(done) / seconds;
}

// ---- deployments ----------------------------------------------------------

// The daemons of one workload, started from exec until `status` shows every
// store loaded (fleet: every shard alive behind the router).
class Deployment {
 public:
  Deployment(const ServiceSpec& spec, const ServiceInputs& in, const Settings& settings,
             const CpuSplit& cpus)
      : dir_(settings.work_dir + "/procs"), cpus_(cpus.daemon_cpus()) {
    MakeDirs(dir_);
    Clock::time_point t0 = Clock::now();
    int shards = spec.fleet ? 3 : 1;
    std::vector<std::string> port_files;
    for (int i = 0; i < shards; ++i) {
      std::vector<std::string> argv = {settings.ServeBinary(), "--topology",   in.graph_path,
                                       "--sweep",              in.sweep_path,  "--leak",
                                       in.leak_path,           "--fail",       in.fail_path,
                                       "--threads",            std::to_string(spec.threads),
                                       "--slow-query-ms",      "0",            "--log-level",
                                       "warn"};
      if (spec.cache_mb > 0) {
        argv.push_back("--cache-mb");
        argv.push_back(std::to_string(spec.cache_mb));
      }
      if (spec.fleet) {
        argv.push_back("--shard");
        argv.push_back(StrFormat("%d/%d", i, shards));
      }
      port_files.push_back(Spawn(argv, StrFormat("serve-%d", i)));
    }
    for (int i = 0; i < shards; ++i) {
      server_ports_.push_back(AwaitPort(*children_[i], port_files[i]));
    }
    port_ = server_ports_.front();
    if (spec.fleet) {
      std::vector<std::string> addresses;
      for (std::uint16_t p : server_ports_) addresses.push_back(StrFormat("127.0.0.1:%u", p));
      std::string backends = flatnet::Join(addresses, ",");
      std::string port_file = Spawn({settings.RouterBinary(), "--backends", backends,
                                     "--log-level", "warn"},
                                    "router");
      port_ = AwaitPort(*children_.back(), port_file);
      router_port_ = port_;
    }
    AwaitReady(shards);
    setup_s_ = SecondsSince(t0);
  }

  std::uint16_t port() const { return port_; }
  const std::vector<std::uint16_t>& server_ports() const { return server_ports_; }
  std::optional<std::uint16_t> router_port() const { return router_port_; }
  double setup_s() const { return setup_s_; }

  double PeakRssMb() const {
    double total = 0.0;
    for (const auto& child : children_) total += child->PeakRssMb();
    return total;
  }

 private:
  std::string Spawn(std::vector<std::string> argv, const std::string& role) {
    std::string port_file = StrFormat("%s/%d-%s.port", dir_.c_str(),
                                      static_cast<int>(::getpid()), role.c_str());
    std::remove(port_file.c_str());
    argv.insert(argv.end(), {"--port", "0", "--port-file", port_file});
    children_.push_back(std::make_unique<Child>(argv, dir_ + "/" + role + ".log", cpus_));
    return port_file;
  }

  std::uint16_t AwaitPort(Child& child, const std::string& port_file) {
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      if (auto port = ReadPortFile(port_file)) {
        std::remove(port_file.c_str());
        return *port;
      }
      if (!child.Running()) {
        throw Error(StrFormat("daemon exited during start-up (log in %s)", dir_.c_str()));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw Error("daemon did not publish its port within 60 s");
  }

  void AwaitReady(int shards) {
    Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      Json status = Json::Parse(RoundTrip(port_, R"({"op":"status","id":0})"));
      bool loaded = true;
      for (const char* store : {"sweep_store", "leak_store", "fail_store"}) {
        const Json& flag = Find(status, {"result", store, "loaded"});
        loaded = loaded && flag.type() == Json::Type::kBool && flag.AsBool();
      }
      if (router_port_) {
        loaded = loaded && NumberAt(status, {"result", "fleet", "alive"}) == shards;
      }
      if (loaded) return;
      if (Clock::now() > deadline) throw Error("deployment never reported every store loaded");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::string dir_;
  const cpu_set_t* cpus_;
  std::vector<std::unique_ptr<Child>> children_;
  std::vector<std::uint16_t> server_ports_;
  std::optional<std::uint16_t> router_port_;
  std::uint16_t port_ = 0;
  double setup_s_ = 0.0;
};

// Counters the daemons export, read before and after a measured window.
struct Counters {
  double hits = 0, misses = 0, evictions = 0, overloaded = 0, peak_queue = 0;
  double hedge_issued = 0, hedge_won = 0, retries = 0, partial = 0, dials = 0;
};

Counters ReadCounters(const Deployment& deployment) {
  Counters c;
  for (std::uint16_t port : deployment.server_ports()) {
    Json status = Json::Parse(RoundTrip(port, R"({"op":"status","id":0})"));
    c.hits += NumberAt(status, {"result", "cache", "hits"});
    c.misses += NumberAt(status, {"result", "cache", "misses"});
    c.evictions += NumberAt(status, {"result", "cache", "evictions"});
    c.overloaded += NumberAt(status, {"result", "metrics", "counters", "serve.overloaded"});
    c.peak_queue = std::max(
        c.peak_queue,
        NumberAt(status, {"result", "metrics", "gauges", "thread_pool.peak_queue_depth"}));
  }
  if (auto router = deployment.router_port()) {
    Json status = Json::Parse(RoundTrip(*router, R"({"op":"status","id":0})"));
    c.hedge_issued = NumberAt(status, {"result", "fleet", "hedge_issued"});
    c.hedge_won = NumberAt(status, {"result", "fleet", "hedge_won"});
    c.retries = NumberAt(status, {"result", "fleet", "retries"});
    c.partial = NumberAt(status, {"result", "fleet", "partial_answers"});
    Json metrics = Json::Parse(RoundTrip(*router, R"({"op":"metrics","id":0})"));
    c.dials = NumberAt(metrics, {"result", "metrics", "counters", "fleet.backend.dials"});
  }
  return c;
}

// ---- verification ---------------------------------------------------------

// Compares the result bytes of every sampled response with an in-process
// Dispatcher over the same .graph and stores (unsharded: the fleet's
// answers, merged `top` included, must equal the single-process ones).
void Verify(const ServiceInputs& in, const std::vector<Req>& reqs,
            const std::map<std::uint32_t, std::string>& lines, bool flip_reference_byte,
            RunResult& result) {
  flatnet::serve::DispatcherOptions options;
  options.threads = 2;
  options.slow_query_ms = 0;
  flatnet::serve::Dispatcher reference(in.internet, options);
  reference.AttachSweepStore(flatnet::sweep::SweepStore::Load(in.sweep_path), in.sweep_path);
  reference.AttachLeakStore(flatnet::leaksim::LeakStore::Load(in.leak_path), in.leak_path);
  reference.AttachFailStore(flatnet::failsim::FailStore::Load(in.fail_path), in.fail_path);
  std::uint64_t checked = 0;
  for (const auto& [index, line] : lines) {
    if (!flatnet::StartsWith(line, "{\"cached\":")) continue;  // counted as failed already
    std::string expected = reference.HandleSync(reqs[index].body + ",\"id\":0}");
    std::string want(RawResultBytes(expected));
    if (flip_reference_byte && checked == 0 && !want.empty()) want.back() ^= 0x01;
    ++checked;
    if (want.empty() || want != RawResultBytes(line)) {
      result.Mismatch(StrFormat("%s: got %.200s want %.200s", reqs[index].body.c_str(),
                                std::string(RawResultBytes(line)).c_str(), want.c_str()));
    }
  }
  result.detail["verified_responses"] = checked;
}

// ---- measurement ------------------------------------------------------------

struct PhaseTotals {
  std::map<std::string, double> sum_ms;
  std::map<std::string, std::uint64_t> with_phase;
  double server_ms = 0.0;
  double rtt_ms = 0.0;
  std::uint64_t timed = 0;
};

PhaseTotals FoldTimings(const std::vector<Outcome>& outcomes) {
  PhaseTotals totals;
  for (const Outcome& o : outcomes) {
    if (o.state != 1 || o.timing.empty()) continue;
    Json timing = Json::Parse(o.timing);
    const Json& phases = timing.Get("phases");
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const std::string& name = phases[i].At("name").AsString();
      totals.sum_ms[name] += phases[i].At("ms").AsNumber();
      ++totals.with_phase[name];
    }
    totals.server_ms += timing.At("server_ms").AsNumber();
    totals.rtt_ms += MsBetween(o.sent, o.recv);
    ++totals.timed;
  }
  return totals;
}

void RecordRequestSpans(const std::vector<Outcome>& outcomes, const std::vector<Req>& reqs,
                        SpanRecorder& spans) {
  constexpr std::size_t kMaxRequestSpans = 20000;
  std::uint64_t tid = spans.size();
  for (const Outcome& o : outcomes) {
    if (o.state != 1 || spans.size() > kMaxRequestSpans * 6) break;
    ++tid;
    Json args = Json::MakeObject();
    args["cached"] = o.cached;
    args["due_us"] = spans.Us(o.due);
    args["sent_us"] = spans.Us(o.sent);
    args["received_us"] = spans.Us(o.recv);
    spans.Add(kOpNames[reqs[o.req].op], "request", o.due, MsBetween(o.due, o.recv) * 1000.0,
              tid, std::move(args));
    if (o.timing.empty()) continue;
    // The server reports durations, not timestamps: lay its phases end to
    // end from the send time as children of the request span.
    double ts = spans.Us(o.sent);
    Json phases = Json::Parse(o.timing).Get("phases");
    for (std::size_t i = 0; i < phases.size(); ++i) {
      double dur = phases[i].At("ms").AsNumber() * 1000.0;
      spans.AddAt(phases[i].At("name").AsString(), "server", ts, dur, tid);
      ts += dur;
    }
  }
}

std::uint64_t ArrivalSeed(std::uint64_t seed) { return seed * 0x2545f4914f6cdd1dull + 7; }

// p99 of the slowest ring shard over p99 of the fastest, attributing each
// keyed request to its owner on a 3-shard ring (the fleet's own routing;
// on a single server it shows how evenly such a split would load).
double ShardP99Skew(const std::vector<Outcome>& outcomes, const std::vector<Req>& reqs) {
  flatnet::fleet::Ring ring(3);
  std::vector<std::vector<double>> per_shard(3);
  for (const Outcome& o : outcomes) {
    if (o.state == 1 && reqs[o.req].keyed) {
      per_shard[ring.Owner(reqs[o.req].key)].push_back(MsBetween(o.due, o.recv));
    }
  }
  double lo = 0.0, hi = 0.0;
  for (const std::vector<double>& ms : per_shard) {
    if (ms.empty()) return 1.0;
    double p99 = Q(ms, 0.99);
    lo = lo == 0.0 ? p99 : std::min(lo, p99);
    hi = std::max(hi, p99);
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

std::vector<Outcome> Concat(std::vector<Outcome> a, std::vector<Outcome>& b) {
  a.insert(a.end(), std::make_move_iterator(b.begin()), std::make_move_iterator(b.end()));
  return a;
}

// A traced session on a fresh deployment: warm-up, an untraced window,
// then a window with "timing":true on every request. Fills the serve,
// bgp-phase, fleet and loadgen per-layer metrics.
void TracedSession(ServiceKind kind, const ServiceInputs& in, const Settings& settings,
                   double warmup_s, double window_s, RunResult& result, SpanRecorder* spans) {
  ServiceSpec spec = SpecFor(kind);
  CpuSplit cpus;
  auto deployment = std::make_unique<Deployment>(spec, in, settings, cpus);
  Json detail = Json::MakeObject();
  detail["setup_s"] = deployment->setup_s();
  Mix mix(in, spec.cold, settings.seed);
  Rng arrivals(ArrivalSeed(settings.seed));
  std::vector<Req> reqs;
  std::vector<Outcome> warm, plain, traced;
  Counters before, after;
  std::map<std::uint32_t, std::string> verify_lines;
  Json errors = Json::MakeArray();
  {
    Session session(deployment->port());
    warm = WarmUp(session, mix, reqs, spec.rate, warmup_s, arrivals);
    plain = session.OpenLoop(mix, reqs, spec.rate, window_s, false, arrivals);
    before = ReadCounters(*deployment);
    traced = session.OpenLoop(mix, reqs, spec.rate, window_s, true, arrivals);
    after = ReadCounters(*deployment);
    verify_lines = session.verify_lines();
    for (const std::string& line : session.error_samples()) errors.Append(Json(line));
  }
  deployment.reset();
  Verify(in, reqs, verify_lines, settings.flip_reference_byte, result);
  for (const auto* phase : {&warm, &plain, &traced}) Count(*phase, result);
  detail["error_samples"] = std::move(errors);

  detail["late_p99_untraced_ms"] = Q(Lateness(plain), 0.99);
  detail["late_p99_traced_ms"] = Q(Lateness(traced), 0.99);
  PhaseTotals t = FoldTimings(traced);
  if (spans != nullptr) RecordRequestSpans(traced, reqs, *spans);
  double timed = static_cast<double>(std::max<std::uint64_t>(t.timed, 1));
  // serve.* phases: mean ms per request (a phase a request skipped adds 0).
  for (const char* phase : {"accept", "parse", "cache_probe", "queue", "setup", "serialize"}) {
    result.Set(StrFormat("serve.%s_ms", phase), t.sum_ms[phase] / timed, "ms");
  }
  result.Set("serve.server_ms", t.server_ms / timed, "ms");
  result.Set("serve.residual_ms", (t.rtt_ms - t.server_ms) / timed, "ms");
  result.Set("serve.trace_overhead_ms",
             Q(Latencies(traced), 0.5) - Q(Latencies(plain), 0.5), "ms");
  double hits = after.hits - before.hits;
  double misses = after.misses - before.misses;
  result.Set("serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  result.Set("serve.cache.evictions", after.evictions - before.evictions, "count");
  result.Set("serve.overloaded", after.overloaded - before.overloaded, "count");
  result.Set("serve.pool.peak_queue_depth", after.peak_queue, "count");
  // 0 for an op the workload's mix never sends.
  for (std::size_t op = 0; op < kNumOps; ++op) {
    result.Set(StrFormat("op.%s.p50_ms", kOpNames[op]),
               Q(Latencies(plain, static_cast<int>(op), &reqs), 0.5), "ms");
  }
  // bgp.* phases: mean ms per request that ran the phase.
  auto per_run = [&](const char* phase) {
    std::uint64_t n = t.with_phase[phase];
    return n > 0 ? t.sum_ms[phase] / static_cast<double>(n) : 0.0;
  };
  result.Set("bgp.propagation.customer_ms", per_run("propagation.customer"), "ms");
  result.Set("bgp.propagation.peer_ms", per_run("propagation.peer"), "ms");
  result.Set("bgp.propagation.provider_ms", per_run("propagation.provider"), "ms");
  result.Set("bgp.reliance_ms", per_run("reliance"), "ms");
  result.Set("bgp.leak_baseline_ms", per_run("baseline"), "ms");

  double issued = after.hedge_issued - before.hedge_issued;
  result.Set("fleet.hedge_issued", issued, "count");
  result.Set("fleet.hedge_win_ratio",
             issued > 0 ? (after.hedge_won - before.hedge_won) / issued : 0.0, "ratio");
  result.Set("fleet.retries", after.retries - before.retries, "count");
  result.Set("fleet.backend_dials", after.dials - before.dials, "count");
  result.Set("fleet.partial_answers", after.partial - before.partial, "count");
  std::vector<double> point_ms;  // keyed requests: one owner shard behind a router
  for (const Outcome& o : plain) {
    if (o.state == 1 && !o.tail && reqs[o.req].keyed) {
      point_ms.push_back(MsBetween(o.due, o.recv));
    }
  }
  result.Set("fleet.point.p50_ms", Q(point_ms, 0.5), "ms");
  std::vector<Outcome> measured = Concat(std::move(plain), traced);
  result.Set("fleet.shard_p99_skew", ShardP99Skew(measured, reqs), "ratio");

  result.Set("loadgen.late_p99_ms", Q(Lateness(measured), 0.99), "ms");
  std::vector<Outcome> all = Concat(std::move(warm), measured);
  double answered = static_cast<double>(
      std::count_if(all.begin(), all.end(), [](const Outcome& o) { return o.state != 0; }));
  result.Set("loadgen.sent", static_cast<double>(all.size()), "count");
  result.Set("loadgen.answered", answered, "count");
  detail["timed_responses"] = t.timed;
  result.detail["serve_session"] = std::move(detail);
}

}  // namespace

ServiceInputs LoadServiceInputs(const Settings& settings) {
  std::string dir = StrFormat("%s/inputs-%u", settings.work_dir.c_str(), settings.service_ases);
  MakeDirs(dir);
  ServiceInputs in;
  in.graph_path = dir + "/world.graph";
  in.sweep_path = dir + "/world.sweep";
  in.leak_path = dir + "/world.leak";
  in.fail_path = dir + "/world.fail";
  std::string manifest_path = dir + "/manifest.json";
  if (!FileExists(manifest_path)) BuildServiceInputs(settings, in, manifest_path);
  Json manifest = Json::Parse(ReadFile(manifest_path));
  in.internet = flatnet::LoadInternetBinary(in.graph_path);
  for (const Json& asn : manifest.At("leak_victims").AsArray()) {
    in.leak_victims.push_back(static_cast<Asn>(asn.AsU64()));
  }
  for (const Json& asn : manifest.At("fail_origins").AsArray()) {
    in.fail_origins.push_back(static_cast<Asn>(asn.AsU64()));
  }
  for (const Json& slug : manifest.At("fail_scenarios").AsArray()) {
    in.fail_scenarios.push_back(slug.AsString());
  }
  in.digests = manifest.At("digests");
  return in;
}

RunResult RunServiceWorkload(ServiceKind kind, const Settings& settings, SpanRecorder* spans) {
  ServiceInputs in = LoadServiceInputs(settings);
  ServiceSpec spec = SpecFor(kind);
  RunResult result;
  result.digests = in.digests;
  result.detail["rate_rps"] = spec.rate;
  if (settings.trace) {
    TracedSession(kind, in, settings, settings.warmup_s, settings.seconds / 2, result, spans);
    ProbeKernelLayers(in.internet, settings.service_ases, settings, result);
    ProbeCampaignLayers(in.internet, kAllEngines, settings, result);
    return result;
  }

  // Set-up is timed over five spawns; the last deployment serves the run.
  CpuSplit cpus;
  std::vector<double> setups;
  std::unique_ptr<Deployment> deployment;
  for (int i = 0; i < 5; ++i) {
    deployment.reset();
    deployment = std::make_unique<Deployment>(spec, in, settings, cpus);
    setups.push_back(deployment->setup_s());
  }
  Mix mix(in, spec.cold, settings.seed);
  Rng arrivals(ArrivalSeed(settings.seed));
  std::vector<Req> reqs;
  std::vector<Outcome> warm, window, capacity;
  std::vector<std::vector<Outcome>> slices;  // the window, cut into equal slices
  std::vector<double> capacities;
  std::map<std::uint32_t, std::string> verify_lines;
  Json errors = Json::MakeArray();
  {
    Session session(deployment->port());
    warm = WarmUp(session, mix, reqs, spec.rate, settings.warmup_s, arrivals);
    double segment_s = settings.seconds / kRounds;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Outcome> segment =
          session.OpenLoop(mix, reqs, spec.rate, segment_s, false, arrivals);
      std::size_t first = slices.size();
      slices.resize(first + kSlicesPerRound);
      for (const Outcome& o : segment) {
        if (o.tail) continue;
        int slice = static_cast<int>(o.at_s / segment_s * kSlicesPerRound);
        slices[first + std::min(slice, kSlicesPerRound - 1)].push_back(o);
      }
      std::vector<Outcome> probe = session.ClosedLoop(
          mix, reqs, kCapacityOutstanding, kCapacityRampS + settings.capacity_s / kRounds);
      capacities.push_back(ClosedLoopThroughput(probe, settings.capacity_s / kRounds));
      window.insert(window.end(), std::make_move_iterator(segment.begin()),
                    std::make_move_iterator(segment.end()));
      capacity.insert(capacity.end(), std::make_move_iterator(probe.begin()),
                      std::make_move_iterator(probe.end()));
    }
    verify_lines = session.verify_lines();
    for (const std::string& line : session.error_samples()) errors.Append(Json(line));
  }
  double rss_mb = deployment->PeakRssMb();
  deployment.reset();
  Verify(in, reqs, verify_lines, settings.flip_reference_byte, result);
  for (const auto* phase : {&warm, &window, &capacity}) Count(*phase, result);

  std::vector<double> latency = Latencies(window);
  std::vector<double> quiet = QuietLatencies(slices);
  result.Set("p50_ms", Q(quiet, 0.5), "ms");
  result.Set("p99_ms", Q(quiet, 0.99), "ms");
  result.Set("throughput_per_s", Mean(capacities), "1/s");
  result.Set("setup_s", Median(setups), "s");
  result.Set("rss_mb", rss_mb, "MB");

  Json detail = Json::MakeObject();
  detail["error_samples"] = std::move(errors);
  Json failed = Json::MakeObject();
  for (const auto& [name, phase] : {std::pair{"warmup", &warm}, {"window", &window},
                                    {"capacity", &capacity}}) {
    failed[name] = static_cast<std::uint64_t>(std::count_if(
        phase->begin(), phase->end(), [](const Outcome& o) { return o.state != 1; }));
  }
  detail["failed_by_phase"] = std::move(failed);
  detail["window_requests"] = static_cast<std::uint64_t>(window.size());
  detail["quiet_requests"] = static_cast<std::uint64_t>(quiet.size());
  Json slice_p99 = Json::MakeArray();
  for (const std::vector<Outcome>& slice : slices) {
    slice_p99.Append(Json(Q(Latencies(slice), 0.99)));
  }
  detail["slice_p99_ms"] = std::move(slice_p99);
  detail["p99_all_ms"] = Q(latency, 0.99);
  detail["p999_ms"] = Q(latency, 0.999);
  std::vector<double> late = Lateness(window);
  detail["late_p50_ms"] = Q(late, 0.5);
  detail["late_p99_ms"] = Q(late, 0.99);
  Json ops = Json::MakeObject();
  for (std::size_t op = 0; op < kNumOps; ++op) {
    std::vector<double> ms = Latencies(window, static_cast<int>(op), &reqs);
    if (ms.empty()) continue;
    Json entry = Json::MakeObject();
    entry["requests"] = static_cast<std::uint64_t>(ms.size());
    entry["p50_ms"] = Q(ms, 0.5);
    entry["p99_ms"] = Q(ms, 0.99);
    ops[kOpNames[op]] = std::move(entry);
  }
  detail["ops"] = std::move(ops);
  detail["capacity_requests"] = static_cast<std::uint64_t>(capacity.size());
  Json rounds = Json::MakeArray();
  for (double c : capacities) rounds.Append(Json(c));
  detail["capacity_rounds"] = std::move(rounds);
  detail["capacity_p99_ms"] = Q(Latencies(capacity), 0.99);
  Json setup_samples = Json::MakeArray();
  for (double s : setups) setup_samples.Append(Json(s));
  detail["setup_samples_s"] = std::move(setup_samples);
  result.detail["service"] = std::move(detail);
  return result;
}

void ProbeServeLayers(const Settings& settings, RunResult& result, SpanRecorder* spans) {
  ServiceInputs in = LoadServiceInputs(settings);
  TracedSession(ServiceKind::kServeHot, in, settings, 1.0, 1.5, result, spans);
}

}  // namespace flatbench
