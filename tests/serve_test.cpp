// lubt_server subsystem tests: framing robustness, the JSON codec's
// canonical form, deterministic loopback goldens, cache-eviction
// transparency, and a concurrent multi-client slice (the tsan preset runs
// every Serve* suite — keep new suites under that prefix).
//
// The two load-bearing properties:
//  * determinism — the same request sequence against a fresh server
//    produces byte-identical responses (goldens are run-twice, not
//    hand-maintained);
//  * eviction transparency — a server whose cache thrashes (budget 1)
//    answers byte-for-byte like a server that never evicts, so clients
//    cannot observe LRU spill/restore. This is the end-to-end face of the
//    bitwise checkpoint contract in tests/checkpoint_test.cpp.

#include "serve/dispatcher.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/framing.h"
#include "serve/json.h"
#include "serve/server.h"

namespace lubt {
namespace {

// ---------------------------------------------------------------------- //
// Framing

TEST(ServeFraming, RoundTripAndByteAtATime) {
  std::string wire;
  AppendFrame("hello", &wire);
  AppendFrame("", &wire);
  AppendFrame(std::string(3000, 'x'), &wire);

  FrameDecoder decoder;
  std::vector<std::string> frames;
  for (const char byte : wire) {
    decoder.Feed(std::string_view(&byte, 1));
    std::string payload;
    while (decoder.Next(&payload) == FrameDecoder::Event::kFrame) {
      frames.push_back(payload);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "hello");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], std::string(3000, 'x'));
  EXPECT_EQ(decoder.BufferedBytes(), 0u);
}

TEST(ServeFraming, TruncatedPrefixNeedsMore) {
  std::string wire;
  AppendFrame("payload", &wire);
  FrameDecoder decoder;
  decoder.Feed(wire.substr(0, 2));  // half the length prefix
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Event::kNeedMore);
  decoder.Feed(wire.substr(2, 5));  // prefix complete, payload partial
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Event::kNeedMore);
  decoder.Feed(wire.substr(7));
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Event::kFrame);
  EXPECT_EQ(payload, "payload");
}

TEST(ServeFraming, OversizedFramePoisons) {
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::string wire;
  for (int shift = 24; shift >= 0; shift -= 8) {
    wire.push_back(static_cast<char>((huge >> shift) & 0xff));
  }
  FrameDecoder decoder;
  decoder.Feed(wire);
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Event::kBad);
  EXPECT_FALSE(decoder.Error().ok());
  // Poisoned for good: feeding valid data afterwards cannot resync.
  std::string good;
  AppendFrame("x", &good);
  decoder.Feed(good);
  EXPECT_EQ(decoder.Next(&payload), FrameDecoder::Event::kBad);
}

// ---------------------------------------------------------------------- //
// JSON codec

TEST(ServeJson, CanonicalDumpAndEscapes) {
  Result<Json> parsed = Json::Parse(
      "{ \"a\" : [1, 2.5, -3], \"b\":\"q\\\"\\n\\u0041\", \"c\": true,"
      " \"d\": null }");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(),
            "{\"a\":[1,2.5,-3],\"b\":\"q\\\"\\nA\",\"c\":true,\"d\":null}");
}

TEST(ServeJson, RejectsGarbageAndTrailing) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(Json::Parse(deep).ok());
}

// ---------------------------------------------------------------------- //
// Dispatcher loopback

DispatcherOptions TestOptions(const std::string& spill_dir,
                              int max_resident = 8) {
  ::mkdir(spill_dir.c_str(), 0700);
  DispatcherOptions options;
  options.deterministic = true;
  options.jobs = 2;
  options.cache.max_resident = max_resident;
  options.cache.spill_dir = spill_dir;
  return options;
}

// A small fixed conversation exercising open/solve/edit/query/close.
std::vector<std::string> GoldenRequests() {
  return {
      R"({"id":1,"op":"open_session","session":"g","sinks":[[120,0],[0,80],[-90,0],[0,-110],[70,40]],"source":[0,0],"window":[0.9,1.3]})",
      R"({"id":2,"op":"solve","session":"g"})",
      R"({"id":3,"op":"eco_edit","session":"g","script":"move 4 55 65\nbounds 1 0.92 1.28"})",
      R"({"id":4,"op":"query","session":"g","tree":true})",
      R"({"id":5,"op":"close_session","session":"g"})",
  };
}

std::vector<std::string> RunSequence(Dispatcher& dispatcher,
                                     const std::vector<std::string>& reqs) {
  std::vector<std::string> out;
  out.reserve(reqs.size());
  for (const std::string& req : reqs) out.push_back(dispatcher.HandleSync(req));
  return out;
}

TEST(ServeLoopback, GoldenSequenceIsDeterministic) {
  Dispatcher first(TestOptions("serve_test_spill_g1"));
  Dispatcher second(TestOptions("serve_test_spill_g2"));
  const std::vector<std::string> a = RunSequence(first, GoldenRequests());
  const std::vector<std::string> b = RunSequence(second, GoldenRequests());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "request " << i;  // byte-identical transcripts
  }
  // And the conversation actually succeeded.
  for (const std::string& resp : a) {
    Result<Json> parsed = Json::Parse(resp);
    ASSERT_TRUE(parsed.ok());
    const Json* ok = parsed->Find("ok");
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->AsBool()) << resp;
  }
}

TEST(ServeLoopback, MalformedRequestsAnswerWithErrors) {
  Dispatcher dispatcher(TestOptions("serve_test_spill_err"));
  const std::vector<std::string> bad = {
      "not json at all",
      "{\"op\":\"no_such_op\",\"session\":\"s\"}",
      "{\"op\":\"solve\"}",                          // missing session
      "{\"op\":\"solve\",\"session\":\"ghost\"}",    // never opened
      R"({"op":"open_session","session":"s","sinks":[[0,0]]})",  // no window
      R"({"op":"eco_edit","session":"s","script":"warp 1 2"})",  // bad verb
  };
  for (const std::string& req : bad) {
    Result<Json> parsed = Json::Parse(dispatcher.HandleSync(req));
    ASSERT_TRUE(parsed.ok()) << req;
    const Json* ok = parsed->Find("ok");
    ASSERT_NE(ok, nullptr) << req;
    EXPECT_FALSE(ok->AsBool()) << req;
    EXPECT_NE(parsed->Find("error"), nullptr) << req;
  }
}

TEST(ServeLoopback, ShutdownAcksThenRefuses) {
  Dispatcher dispatcher(TestOptions("serve_test_spill_sd"));
  EXPECT_FALSE(dispatcher.ShutdownRequested());
  Result<Json> ack = Json::Parse(dispatcher.HandleSync(
      "{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(ack->Find("ok")->AsBool());
  EXPECT_TRUE(dispatcher.ShutdownRequested());
  // Post-shutdown: ops are refused, stats still answers.
  Result<Json> refused = Json::Parse(dispatcher.HandleSync(
      "{\"op\":\"solve\",\"session\":\"s\"}"));
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(refused->Find("ok")->AsBool());
  Result<Json> stats = Json::Parse(dispatcher.HandleSync("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->Find("ok")->AsBool());
}

// ---------------------------------------------------------------------- //
// Cache transparency: a thrashing cache is indistinguishable from an
// unbounded one, response byte for response byte.

TEST(ServeCache, EvictionIsInvisibleToClients) {
  // Budget 1: every touch of the "other" session evicts the current one.
  Dispatcher thrashing(TestOptions("serve_test_spill_t", /*max_resident=*/1));
  // Budget 8: nothing is ever evicted.
  Dispatcher roomy(TestOptions("serve_test_spill_r", /*max_resident=*/8));

  std::vector<std::string> reqs = {
      R"({"id":1,"op":"open_session","session":"a","sinks":[[100,0],[0,100],[-100,0],[0,-100]],"source":[0,0],"window":[0.9,1.3]})",
      R"({"id":2,"op":"open_session","session":"b","sinks":[[80,20],[20,80],[-60,-40],[50,-50],[10,90]],"source":[5,5],"window":[0.95,1.4]})",
  };
  // Interleave the two sessions hard; each request ping-pongs residency in
  // the thrashing server.
  for (int round = 0; round < 3; ++round) {
    for (const char* name : {"a", "b"}) {
      reqs.push_back(std::string("{\"op\":\"eco_edit\",\"session\":\"") +
                     name + "\",\"script\":\"bounds " +
                     std::to_string(round) + " 0.92 1.3\"}");
      reqs.push_back(std::string("{\"op\":\"query\",\"session\":\"") + name +
                     "\",\"tree\":true}");
    }
  }
  const std::vector<std::string> a = RunSequence(thrashing, reqs);
  const std::vector<std::string> b = RunSequence(roomy, reqs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "request " << i;
  }

  // Confirm the thrashing server actually thrashed — without this the test
  // proves nothing.
  Result<Json> stats = Json::Parse(thrashing.HandleSync("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  const Json* result = stats->Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->Find("evictions")->AsNumber(), 0.0);
  EXPECT_GT(result->Find("restores")->AsNumber(), 0.0);

  Result<Json> roomy_stats = Json::Parse(roomy.HandleSync("{\"op\":\"stats\"}"));
  ASSERT_TRUE(roomy_stats.ok());
  EXPECT_EQ(roomy_stats->Find("result")->Find("evictions")->AsNumber(), 0.0);
}

TEST(ServeCache, CloseForgetsSessionAndSpill) {
  Dispatcher dispatcher(TestOptions("serve_test_spill_c", /*max_resident=*/1));
  ASSERT_TRUE(Json::Parse(dispatcher.HandleSync(GoldenRequests()[0]))
                  ->Find("ok")
                  ->AsBool());
  // Evict "g" by opening a second session, then close the spilled "g".
  ASSERT_TRUE(
      Json::Parse(dispatcher.HandleSync(
                      R"({"op":"open_session","session":"h","sinks":[[50,50],[-50,50],[0,-70]],"source":[0,0],"window":[0.9,1.5]})"))
          ->Find("ok")
          ->AsBool());
  EXPECT_TRUE(Json::Parse(dispatcher.HandleSync(
                              R"({"op":"close_session","session":"g"})"))
                  ->Find("ok")
                  ->AsBool());
  // Closed means gone: further ops are NotFound, and double-close errors.
  EXPECT_FALSE(Json::Parse(dispatcher.HandleSync(
                               R"({"op":"query","session":"g"})"))
                   ->Find("ok")
                   ->AsBool());
  EXPECT_FALSE(Json::Parse(dispatcher.HandleSync(
                               R"({"op":"close_session","session":"g"})"))
                   ->Find("ok")
                   ->AsBool());
}

// ---------------------------------------------------------------------- //
// Concurrent clients over a real socket (the tsan slice's main workload).

struct ClientOutcome {
  int responses = 0;
  int failures = 0;
};

void SocketClient(const std::string& path, int id, ClientOutcome* out) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  FrameDecoder decoder;
  const std::string session = "c" + std::to_string(id);
  const std::vector<std::string> script = {
      "{\"op\":\"open_session\",\"session\":\"" + session +
          "\",\"sinks\":[[90,10],[10,90],[-70,-20],[40,-60]],"
          "\"source\":[0,0],\"window\":[0.9,1.4]}",
      "{\"op\":\"eco_edit\",\"session\":\"" + session +
          "\",\"script\":\"move 2 -60 -30\"}",
      "{\"op\":\"query\",\"session\":\"" + session + "\"}",
      "{\"op\":\"eco_edit\",\"session\":\"" + session +
          "\",\"script\":\"bounds 0 0.95 1.3\"}",
      "{\"op\":\"close_session\",\"session\":\"" + session + "\"}",
  };
  for (const std::string& req : script) {
    if (!WriteFrameFd(fd, req).ok()) {
      ++out->failures;
      break;
    }
    Result<std::string> resp = ReadFrameFd(fd, &decoder);
    if (!resp.ok()) {
      ++out->failures;
      break;
    }
    ++out->responses;
    Result<Json> parsed = Json::Parse(*resp);
    if (!parsed.ok() || parsed->Find("ok") == nullptr ||
        !parsed->Find("ok")->AsBool()) {
      ++out->failures;
    }
  }
  ::close(fd);
}

TEST(ServeConcurrent, ManyClientsOneServer) {
  const std::string socket_path = "serve_test_conc.sock";
  DispatcherOptions options = TestOptions("serve_test_spill_conc",
                                          /*max_resident=*/2);
  Dispatcher dispatcher(options);
  ServerOptions server_options;
  server_options.unix_path = socket_path;
  Result<std::unique_ptr<Server>> server =
      Server::Listen(server_options, &dispatcher);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::thread server_thread([&server] { (*server)->Run(); });

  constexpr int kClients = 4;
  std::vector<ClientOutcome> outcomes(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&socket_path, c, &outcomes] { SocketClient(socket_path, c, &outcomes[static_cast<std::size_t>(c)]); });
  }
  for (std::thread& t : clients) t.join();

  // The clients were served across real spill/restore cycles, not by a
  // cache large enough to hold every session.
  Result<Json> stats = Json::Parse(dispatcher.HandleSync(R"({"op":"stats"})"));
  (*server)->Shutdown();
  server_thread.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(outcomes[static_cast<std::size_t>(c)].responses, 5)
        << "client " << c;
    EXPECT_EQ(outcomes[static_cast<std::size_t>(c)].failures, 0)
        << "client " << c;
  }
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->Find("ok")->AsBool());
  const Json* cache = stats->Find("result");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->Find("evictions")->AsNumber(), 0.0);
  EXPECT_GT(cache->Find("restores")->AsNumber(), 0.0);
}

// Shutdown driven over the wire: the requesting client gets its ack frame
// before the transport dies, and Run() returns on its own.
TEST(ServeConcurrent, WireShutdownAcksBeforeTeardown) {
  const std::string socket_path = "serve_test_sd.sock";
  Dispatcher dispatcher(TestOptions("serve_test_spill_wsd"));
  ServerOptions server_options;
  server_options.unix_path = socket_path;
  Result<std::unique_ptr<Server>> server =
      Server::Listen(server_options, &dispatcher);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::thread server_thread([&server] { (*server)->Run(); });

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  FrameDecoder decoder;
  ASSERT_TRUE(WriteFrameFd(fd, "{\"op\":\"shutdown\"}").ok());
  Result<std::string> ack = ReadFrameFd(fd, &decoder);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  Result<Json> parsed = Json::Parse(*ack);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  ::close(fd);
  server_thread.join();  // Run() unblocked by the dispatcher's hook
}

}  // namespace
}  // namespace lubt
