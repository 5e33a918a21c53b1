#include "serve_eco.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "cts/metrics.h"
#include "eco/edit_script.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "layers.h"
#include "serve/dispatcher.h"
#include "serve/framing.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace lubt;

namespace {

// One session's edit stream, deterministic per (seed, session) whatever
// the timing: 7 in 8 requests move one sink a little and reset another's
// window (RHS edits); the 8th adds or removes a sink (structural), keeping
// the sink count near its initial value.
class EditStream {
 public:
  EditStream(const SinkSet& set, std::uint64_t seed, double lower,
             double upper)
      : points_(set.sinks),
        initial_(set.sinks.size()),
        box_(BBox::Around(set.sinks)),
        source_(set.source.value_or(box_.Center())),
        radius_(Radius(set.sinks, set.source)),
        lower_(lower),
        upper_(upper),
        rng_(seed) {}

  std::string Next() {
    std::vector<EcoEdit> edits;
    const int n = static_cast<int>(points_.size());
    if (rng_.UniformInt(0, 7) == 0) {
      const bool add = points_.size() < initial_ ||
                       (points_.size() == initial_ && rng_.UniformInt(0, 1) == 0);
      EcoEdit edit;
      if (add) {
        // Next to an existing sink, so the new sink's distance to the
        // source stays inside the initial-radius windows.
        edit.kind = EcoEditKind::kAddSink;
        edit.point = Nudge(points_[static_cast<std::size_t>(
            rng_.UniformInt(0, n - 1))]);
        edit.lo = lower_;
        edit.hi = upper_;
        points_.push_back(edit.point);
      } else {
        edit.kind = EcoEditKind::kRemoveSink;
        edit.sink = rng_.UniformInt(0, n - 1);
        points_.erase(points_.begin() + edit.sink);
      }
      edits.push_back(edit);
    } else {
      EcoEdit move;
      move.kind = EcoEditKind::kMoveSink;
      move.sink = rng_.UniformInt(0, n - 1);
      Point& p = points_[static_cast<std::size_t>(move.sink)];
      p = Nudge(p);
      move.point = p;
      edits.push_back(move);
      EcoEdit window;
      window.kind = EcoEditKind::kSetBounds;
      window.sink = rng_.UniformInt(0, n - 1);
      window.lo = lower_ + rng_.Uniform(-0.05, 0.05);
      window.hi = upper_ + rng_.Uniform(-0.05, 0.05);
      edits.push_back(window);
    }
    return FormatEditScript(edits);
  }

 private:
  // `p` moved by up to 1.5% of the die in each axis. A step that would
  // leave the initial radius around the source is not taken, so every
  // window (upper bound at least 1.15 radius) stays satisfiable.
  Point Nudge(const Point& p) {
    const double step = 0.015 * std::max(box_.Width(), box_.Height());
    const Point q{p.x + rng_.Uniform(-step, step), p.y + rng_.Uniform(-step, step)};
    return std::abs(q.x - source_.x) + std::abs(q.y - source_.y) <= radius_ ? q : p;
  }

  std::vector<Point> points_;
  std::size_t initial_;
  BBox box_;
  Point source_;
  double radius_;
  double lower_, upper_;
  Rng rng_;
};

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() + 1 > sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One request/response round trip; `ms` receives the latency.
Result<Json> RoundTrip(int fd, FrameDecoder* decoder, const Json& request,
                       double* ms) {
  const double t0 = NowSeconds();
  LUBT_RETURN_IF_ERROR(WriteFrameFd(fd, request.Dump()));
  Result<std::string> frame = ReadFrameFd(fd, decoder);
  if (!frame.ok()) return frame.status();
  *ms = (NowSeconds() - t0) * 1e3;
  return Json::Parse(*frame);
}

// ok=true and, where the result carries one, a solver status of OK.
const Json* OkResult(const Result<Json>& resp) {
  if (!resp.ok() || !resp->IsObject()) return nullptr;
  const Json* ok = resp->Find("ok");
  if (ok == nullptr || !ok->IsBool() || !ok->AsBool()) return nullptr;
  const Json* result = resp->Find("result");
  if (result == nullptr || !result->IsObject()) return nullptr;
  if (const Json* status = result->Find("status"); status != nullptr) {
    if (!status->IsString() || status->AsString() != "OK") return nullptr;
  }
  return result;
}

Json Request(const char* op, const std::string& session) {
  Json req = Json::MakeObject();
  req.Set("op", Json::MakeString(op));
  if (!session.empty()) req.Set("session", Json::MakeString(session));
  return req;
}

Json OpenRequest(const std::string& name, const SinkSet& set, double lower,
                 double upper) {
  Json req = Request("open_session", name);
  const auto point = [](const Point& p) {
    Json pt = Json::MakeArray();
    pt.Append(Json::MakeNumber(p.x));
    pt.Append(Json::MakeNumber(p.y));
    return pt;
  };
  Json sinks = Json::MakeArray();
  for (const Point& p : set.sinks) sinks.Append(point(p));
  req.Set("sinks", std::move(sinks));
  if (set.source.has_value()) req.Set("source", point(*set.source));
  Json window = Json::MakeArray();
  window.Append(Json::MakeNumber(lower));
  window.Append(Json::MakeNumber(upper));
  req.Set("window", std::move(window));
  return req;
}

// Per-client results, merged after the join (Outcome is single-threaded).
struct ClientLog {
  std::vector<double> open_ms, edit_ms, query_ms;
  long long ok = 0;
  std::vector<std::string> failures;
};

std::string SessionName(std::size_t i) { return "net-" + std::to_string(i); }

void RunClient(const ServeSpec& spec, const std::string& socket_path,
               int client, double deadline, ServeRun* run, ClientLog* log) {
  const auto fail = [log](const std::string& what) {
    log->failures.push_back(what);
  };
  const int fd = ConnectUnix(socket_path);
  if (fd < 0) {
    fail("client " + std::to_string(client) + ": connect failed");
    return;
  }
  FrameDecoder decoder;
  std::vector<std::size_t> mine;
  std::vector<EditStream> streams;
  for (std::size_t i = static_cast<std::size_t>(client);
       i < spec.sessions.size(); i += static_cast<std::size_t>(spec.clients)) {
    mine.push_back(i);
    streams.emplace_back(spec.sessions[i], spec.seed * 1000003 + i, spec.lower,
                         spec.upper);
  }
  bool ok = true;
  for (const std::size_t i : mine) {
    double ms = 0.0;
    const Result<Json> resp = RoundTrip(
        fd, &decoder,
        OpenRequest(SessionName(i), spec.sessions[i], spec.lower, spec.upper),
        &ms);
    log->open_ms.push_back(ms);
    if (OkResult(resp) == nullptr) {
      fail(SessionName(i) + ": open_session failed");
      ok = false;
      break;
    }
    ++log->ok;
  }
  for (int round = 0; ok && (round < spec.min_rounds || NowSeconds() < deadline);
       ++round) {
    for (std::size_t k = 0; k < mine.size() && ok; ++k) {
      const std::size_t i = mine[k];
      const std::string script = streams[k].Next();
      Json edit = Request("eco_edit", SessionName(i));
      edit.Set("script", Json::MakeString(script));
      double ms = 0.0;
      const Result<Json> edited = RoundTrip(fd, &decoder, edit, &ms);
      if (OkResult(edited) == nullptr) {
        fail(SessionName(i) + ": eco_edit failed in round " +
             std::to_string(round) + ": " +
             (edited.ok() ? edited->Dump() : edited.status().ToString()) +
             " for script:\n" + script);
        ok = false;
        break;
      }
      ++log->ok;
      log->edit_ms.push_back(ms);
      run->scripts[i].push_back(script);
      const Result<Json> resp =
          RoundTrip(fd, &decoder, Request("query", SessionName(i)), &ms);
      const Json* result = OkResult(resp);
      const Json* cost = result == nullptr ? nullptr : result->Find("cost");
      if (cost == nullptr || !cost->IsNumber()) {
        fail(SessionName(i) + ": query failed in round " +
             std::to_string(round));
        ok = false;
        break;
      }
      ++log->ok;
      log->query_ms.push_back(ms);
      run->final_cost[i] = cost->AsNumber();
    }
  }
  ::close(fd);
}

// A running server: private directory, dispatcher, listener and accept
// thread. Stop() sends the shutdown op, joins and removes the directory.
class LiveServer {
 public:
  LiveServer(const ServeSpec& spec, Outcome* out) : out_(out) {
    char templ[] = "serve-XXXXXX";
    if (::mkdtemp(templ) == nullptr) {
      out_->Check(false, "cannot create the server directory");
      return;
    }
    dir_ = templ;
    std::filesystem::create_directory(dir_ + "/spill");
    socket_ = dir_ + "/s.sock";
    DispatcherOptions options;
    options.jobs = spec.jobs;
    options.cache.max_resident = spec.resident;
    options.cache.spill_dir = dir_ + "/spill";
    dispatcher_ = std::make_unique<Dispatcher>(options);
    ServerOptions server_options;
    server_options.unix_path = socket_;
    Result<std::unique_ptr<Server>> server =
        Server::Listen(server_options, dispatcher_.get());
    if (!server.ok()) {
      out_->Check(false, "listen: " + server.status().ToString());
      return;
    }
    server_ = std::move(*server);
    thread_ = std::thread([this] { server_->Run(); });
  }

  ~LiveServer() { Stop(nullptr); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  bool ok() const { return server_ != nullptr; }

  // Open and close one throwaway session: primes the solver, codec and
  // allocator paths that the first timed request would otherwise pay for.
  void WarmUp(const ServeSpec& spec) {
    const int fd = ConnectUnix(socket_);
    FrameDecoder decoder;
    double ms = 0.0;
    const bool warmed =
        fd >= 0 &&
        OkResult(RoundTrip(fd, &decoder,
                           OpenRequest("warmup", spec.sessions[0], spec.lower,
                                       spec.upper),
                           &ms)) != nullptr &&
        OkResult(RoundTrip(fd, &decoder, Request("close_session", "warmup"),
                           &ms)) != nullptr;
    if (fd >= 0) ::close(fd);
    out_->Check(warmed, "warm-up open/close failed");
  }
  const std::string& socket() const { return socket_; }

  // Read the stats op into `run` (when given), then shut down.
  void Stop(ServeRun* run) {
    if (server_ != nullptr) {
      const int fd = ConnectUnix(socket_);
      FrameDecoder decoder;
      double ms = 0.0;
      if (fd >= 0 && run != nullptr) {
        const Result<Json> stats =
            RoundTrip(fd, &decoder, Request("stats", ""), &ms);
        const Json* result = OkResult(stats);
        out_->Check(result != nullptr, "stats op failed");
        if (result != nullptr) {
          const auto field = [result](const char* key) {
            const Json* v = result->Find(key);
            return v != nullptr && v->IsNumber()
                       ? static_cast<long long>(v->AsNumber())
                       : 0LL;
          };
          run->evictions = field("evictions");
          run->restores = field("restores");
          run->rejected = field("rejected");
        }
      }
      const bool acked =
          fd >= 0 &&
          OkResult(RoundTrip(fd, &decoder, Request("shutdown", ""), &ms)) !=
              nullptr;
      if (fd >= 0) ::close(fd);
      if (!acked) server_->Shutdown();
      if (run != nullptr) out_->Check(acked, "shutdown op failed");
      thread_.join();
      server_.reset();
    }
    dispatcher_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
      dir_.clear();
    }
  }

 private:
  Outcome* out_;
  std::string dir_, socket_;
  std::unique_ptr<Dispatcher> dispatcher_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

}  // namespace

ServeRun RunServeLoop(const ServeSpec& spec, Outcome* out) {
  ServeRun run;
  run.scripts.assign(spec.sessions.size(), {});
  run.final_cost.assign(spec.sessions.size(), 0.0);

  // Set-up: private directory, dispatcher, listener, accept thread and a
  // warm-up request. All but the last bring-up are torn down again; the
  // median is setup_s.
  std::unique_ptr<LiveServer> server;
  run.setup_s = MedianSetupSeconds(
      spec.setup_reps,
      [&] {
        server = std::make_unique<LiveServer>(spec, out);
        if (server->ok()) server->WarmUp(spec);
      },
      [&] { server.reset(); });
  if (!server->ok()) return run;

  std::vector<ClientLog> logs(static_cast<std::size_t>(spec.clients));
  const double t0 = NowSeconds();
  const double deadline = t0 + spec.seconds;
  std::vector<std::thread> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.emplace_back([&, c] {
      RunClient(spec, server->socket(), c, deadline, &run,
                &logs[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& t : clients) t.join();
  run.window_s = NowSeconds() - t0;
  server->Stop(&run);

  for (const ClientLog& log : logs) {
    run.open_ms.insert(run.open_ms.end(), log.open_ms.begin(), log.open_ms.end());
    run.edit_ms.insert(run.edit_ms.end(), log.edit_ms.begin(), log.edit_ms.end());
    run.query_ms.insert(run.query_ms.end(), log.query_ms.begin(),
                        log.query_ms.end());
    run.requests += log.ok + static_cast<long long>(log.failures.size());
    out->Succeeded(log.ok);
    for (const std::string& f : log.failures) out->Check(false, f);
  }
  out->Check(run.evictions > 0 && run.restores > 0,
             "the session cache never evicted and restored");
  return run;
}

namespace {

// The serve_eco workload's sessions for `seed`.
std::vector<SinkSet> ServeSessions(std::uint64_t seed, int count) {
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<SinkSet> sessions;
  for (int i = 0; i < count; ++i) {
    // Sizes spread evenly over 48..96, so only positions depend on the seed.
    const int sinks = count > 1 ? 48 + 48 * i / (count - 1) : 72;
    sessions.push_back(RandomSinkSet(sinks, die, rng.Next(), /*with_source=*/true));
  }
  return sessions;
}

// Clients and dispatcher workers are fixed, not derived from the machine,
// so the traffic mix is the same everywhere; both equal the 4 hardware
// threads the benchmark is sized for, so requests do not queue behind
// each other for a worker.
constexpr int kClients = 4;
constexpr int kJobs = 4;

ServeSpec ServeEcoSpec(const RunConfig& config) {
  ServeSpec spec;
  spec.sessions = ServeSessions(config.seed, config.smoke ? 6 : 32);
  spec.clients = config.smoke ? 2 : kClients;
  spec.jobs = config.smoke ? 1 : kJobs;
  spec.resident = config.smoke ? 2 : 8;
  spec.seconds = config.seconds;
  spec.min_rounds = 2;
  spec.seed = config.seed;
  spec.setup_reps = 25;
  return spec;
}

}  // namespace

void RunServeEco(const RunConfig& config, Outcome* out) {
  const ServeSpec spec = ServeEcoSpec(config);
  if (config.trace) {
    std::vector<ColdNet> nets;
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
      nets.push_back({SessionName(i), spec.sessions[i], spec.lower, spec.upper,
                      true});
    }
    TopoSearchOptions search;
    search.seed = config.seed;
    search.max_rounds = config.smoke ? 2 : 8;
    search.jobs = 2;
    RunLayerSuite(nets, spec, {nets[0]}, search, out);
    return;
  }

  const ServeRun run = RunServeLoop(spec, out);
  // Output check: replay a sample of sessions in process and compare the
  // served final costs with the replay and with ColdReferenceSolve.
  ServeSpec sample = spec;
  ServeRun sample_run;
  sample.sessions.clear();
  for (std::size_t i = 0; i < spec.sessions.size(); i += 16) {
    sample.sessions.push_back(spec.sessions[i]);
    sample_run.scripts.push_back(run.scripts[i]);
    sample_run.final_cost.push_back(run.final_cost[i]);
  }
  LayerStats checked;
  ReplayServed(sample, sample_run, &checked, out);

  const Tail edit_tail = ReportedTail(run.edit_ms);
  const double rps = static_cast<double>(run.requests) / run.window_s;
  out->Metric("setup_s", run.setup_s, "s");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
  out->Metric("p50_ms", Median(run.edit_ms), "ms");
  out->Metric("tail_ms", edit_tail.value, "ms");
  out->Metric("ops_per_s", rps, "1/s");
  out->Metric("cost_ratio", checked.served_cost / checked.reference_cost,
              "ratio");

  out->Report("open_p50_ms", Median(run.open_ms), "ms");
  out->Report("open_samples", static_cast<double>(run.open_ms.size()), "count");
  out->Report("edit_p50_ms", Median(run.edit_ms), "ms");
  out->Report("edit_p" + std::to_string(edit_tail.percentile) + "_ms",
              edit_tail.value, "ms");
  out->Report("edit_samples", static_cast<double>(run.edit_ms.size()), "count");
  out->Report("query_p50_ms", Median(run.query_ms), "ms");
  out->Report("query_samples", static_cast<double>(run.query_ms.size()), "count");
  out->Report("serve_rps", rps, "1/s");
  out->Report("evictions", static_cast<double>(run.evictions), "count");
  out->Report("restores", static_cast<double>(run.restores), "count");
}

}  // namespace perfbench
