// EcoSession checkpoint/restore: the restored-session ≡ never-evicted
// contract, bit for bit.
//
// The headline oracle runs two sessions through an identical randomized
// edit stream; one of them is checkpointed, pushed through the text codec,
// and restored from scratch after EVERY edit. All solved state — costs,
// delays, edge lengths, the serialized tree — must stay bitwise identical
// between the twins for the session cache's transparent eviction to be
// sound (a client must not be able to tell whether its session was ever
// spilled). The corrupt-input matrix pins the other half of the contract:
// a damaged spill file is an error Status, never an abort or a partially
// constructed session.

#include "eco/checkpoint.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cts/metrics.h"
#include "eco/eco_session.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "io/tree_io.h"
#include "serve/checkpoint_codec.h"
#include "topo/nn_merge.h"
#include "util/rng.h"

namespace lubt {
namespace {

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Bitwise double equality — tolerances would mask exactly the drift this
// suite exists to rule out.
::testing::AssertionResult SameBits(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits " << Bits(a) << " vs " << Bits(b)
         << ")";
}

std::unique_ptr<EcoSession> MakeSession(int sinks, std::uint64_t seed,
                                        double lo_f = 0.9,
                                        double hi_f = 1.25) {
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  SinkSet set = RandomSinkSet(sinks, die, seed, /*with_source=*/true);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(set.sinks.size(),
                                  DelayBounds{lo_f * radius, hi_f * radius});
  auto created =
      EcoSession::Create(std::move(set), std::move(bounds), std::move(topo));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(*created) : nullptr;
}

// A deterministic mixed edit stream in the eco oracle's regime: moves and
// window edits, plus one add and one remove, plus an infeasibility dip
// (a window no wire length can satisfy) followed by recovery — so the
// parked needs_rebuild state goes through the codec mid-stream too.
std::vector<EcoEdit> OracleStream(const EcoSession& session,
                                  std::uint64_t seed, int edits) {
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  const double radius = session.InitialRadius();
  Rng rng(seed * 0xc0ffee123ULL + 5);
  std::vector<EcoEdit> stream;
  for (int k = 0; k < edits; ++k) {
    EcoEdit edit;
    switch (k % 6) {
      case 0:
      case 3: {
        edit.kind = EcoEditKind::kMoveSink;
        edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
        edit.point = {rng.Uniform(die.Lo().x, die.Hi().x),
                      rng.Uniform(die.Lo().y, die.Hi().y)};
        break;
      }
      case 1: {
        edit.kind = EcoEditKind::kSetBounds;
        edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
        edit.lo = rng.Uniform(0.85, 0.95) * radius;
        edit.hi = rng.Uniform(1.2, 1.35) * radius;
        break;
      }
      case 2: {
        // Infeasible dip: a window far below any source-sink distance
        // parks the session (needs_rebuild); the next window edit in the
        // stream recovers it through the cold-rebuild tier.
        edit.kind = EcoEditKind::kSetBounds;
        edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
        edit.lo = 0.01 * radius;
        edit.hi = 0.02 * radius;
        break;
      }
      case 4: {
        edit.kind = EcoEditKind::kAddSink;
        edit.point = {rng.Uniform(die.Lo().x, die.Hi().x),
                      rng.Uniform(die.Lo().y, die.Hi().y)};
        edit.lo = 0.9 * radius;
        edit.hi = 1.35 * radius;
        break;
      }
      default: {
        edit.kind = EcoEditKind::kRemoveSink;
        edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
        break;
      }
    }
    stream.push_back(edit);
  }
  return stream;
}

void ExpectTwinState(const EcoSession& a, const EcoSession& b) {
  ASSERT_EQ(a.NumSinks(), b.NumSinks());
  EXPECT_EQ(a.Feasible(), b.Feasible());
  EXPECT_EQ(a.Last().status.code(), b.Last().status.code());
  EXPECT_EQ(a.Last().tier, b.Last().tier);
  EXPECT_TRUE(SameBits(a.Last().cost, b.Last().cost));
  EXPECT_TRUE(SameBits(a.Last().stats.min_delay, b.Last().stats.min_delay));
  EXPECT_TRUE(SameBits(a.Last().stats.max_delay, b.Last().stats.max_delay));
  EXPECT_EQ(a.Last().lp_rows, b.Last().lp_rows);
  EXPECT_EQ(a.Last().lp_iterations, b.Last().lp_iterations);
  EXPECT_EQ(a.NumLpRows(), b.NumLpRows());
  ASSERT_EQ(a.EdgeLengths().size(), b.EdgeLengths().size());
  for (std::size_t i = 0; i < a.EdgeLengths().size(); ++i) {
    EXPECT_TRUE(SameBits(a.EdgeLengths()[i], b.EdgeLengths()[i]))
        << "edge " << i;
  }
  if (a.Feasible() && b.Feasible()) {
    EXPECT_EQ(FormatTreeSolution(a.Solution()),
              FormatTreeSolution(b.Solution()));
  }
}

// Checkpoint -> encode -> decode -> Restore, replacing the session.
std::unique_ptr<EcoSession> CycleThroughCodec(const EcoSession& session) {
  const std::string text = EncodeCheckpoint(session.Checkpoint());
  Result<EcoCheckpoint> decoded = DecodeCheckpoint(text);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok()) return nullptr;
  auto restored = EcoSession::Restore(std::move(*decoded));
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
  return restored.ok() ? std::move(*restored) : nullptr;
}

// ---------------------------------------------------------------------- //
// The bitwise twin oracle

TEST(CheckpointOracle, RestoredTwinStaysBitwiseIdentical) {
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    auto live = MakeSession(18, seed);
    auto cycled = MakeSession(18, seed);
    ASSERT_NE(live, nullptr);
    ASSERT_NE(cycled, nullptr);
    ExpectTwinState(*live, *cycled);

    const std::vector<EcoEdit> stream = OracleStream(*live, seed, 12);
    for (std::size_t k = 0; k < stream.size(); ++k) {
      // Evict + restore the twin BEFORE the edit: the edit then exercises
      // the restored formulation, warm-start vectors, and Steiner pool.
      cycled = CycleThroughCodec(*cycled);
      ASSERT_NE(cycled, nullptr) << "seed " << seed << " edit " << k;

      const auto a = live->Apply(stream[k]);
      const auto b = cycled->Apply(stream[k]);
      ASSERT_EQ(a.ok(), b.ok()) << "seed " << seed << " edit " << k;
      if (!a.ok()) continue;  // malformed edit rejected by both: same state
      SCOPED_TRACE("seed " + std::to_string(seed) + " edit " +
                   std::to_string(k) + " kind " +
                   EcoEditKindName(stream[k].kind));
      ExpectTwinState(*live, *cycled);
    }
  }
}

TEST(CheckpointOracle, ParkedSessionRoundTrips) {
  auto session = MakeSession(10, 17);
  ASSERT_NE(session, nullptr);
  EcoEdit park;
  park.kind = EcoEditKind::kSetBounds;
  park.sink = 0;
  park.lo = 0.01 * session->InitialRadius();
  park.hi = 0.02 * session->InitialRadius();
  const auto parked = session->Apply(park);
  ASSERT_TRUE(parked.ok());
  EXPECT_FALSE(parked->ok());  // infeasible, reported not errored
  EXPECT_FALSE(session->Feasible());

  const EcoCheckpoint ck = session->Checkpoint();
  EXPECT_FALSE(ck.has_model);
  EXPECT_TRUE(ck.needs_rebuild);
  EXPECT_FALSE(ck.lp_valid);

  auto restored = CycleThroughCodec(*session);
  ASSERT_NE(restored, nullptr);
  ExpectTwinState(*session, *restored);

  // Both twins must recover identically through the cold-rebuild tier.
  EcoEdit heal = park;
  heal.lo = 0.9 * session->InitialRadius();
  heal.hi = 1.3 * session->InitialRadius();
  const auto a = session->Apply(heal);
  const auto b = restored->Apply(heal);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->ok());
  ExpectTwinState(*session, *restored);
}

// ---------------------------------------------------------------------- //
// Codec round trip

TEST(CheckpointCodec, RoundTripIsFieldExact) {
  auto session = MakeSession(14, 41);
  ASSERT_NE(session, nullptr);
  // A couple of edits so the pool and duals are non-trivial.
  for (const EcoEdit& edit : OracleStream(*session, 41, 4)) {
    ASSERT_TRUE(session->Apply(edit).ok());
  }
  const EcoCheckpoint ck = session->Checkpoint();
  const std::string text = EncodeCheckpoint(ck);
  Result<EcoCheckpoint> rt = DecodeCheckpoint(text);
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();

  EXPECT_EQ(rt->set.name, ck.set.name);
  ASSERT_EQ(rt->set.sinks.size(), ck.set.sinks.size());
  for (std::size_t i = 0; i < ck.set.sinks.size(); ++i) {
    EXPECT_TRUE(SameBits(rt->set.sinks[i].x, ck.set.sinks[i].x));
    EXPECT_TRUE(SameBits(rt->set.sinks[i].y, ck.set.sinks[i].y));
  }
  ASSERT_EQ(rt->set.source.has_value(), ck.set.source.has_value());
  ASSERT_EQ(rt->bounds.size(), ck.bounds.size());
  for (std::size_t i = 0; i < ck.bounds.size(); ++i) {
    EXPECT_TRUE(SameBits(rt->bounds[i].lo, ck.bounds[i].lo));
    EXPECT_TRUE(SameBits(rt->bounds[i].hi, ck.bounds[i].hi));
  }
  EXPECT_EQ(rt->topo.NumNodes(), ck.topo.NumNodes());
  EXPECT_EQ(rt->topo.Root(), ck.topo.Root());
  EXPECT_TRUE(SameBits(rt->initial_radius, ck.initial_radius));
  EXPECT_EQ(rt->has_model, ck.has_model);
  EXPECT_TRUE(SameBits(rt->scale, ck.scale));
  EXPECT_EQ(rt->pool, ck.pool);
  EXPECT_EQ(rt->lp_valid, ck.lp_valid);
  EXPECT_EQ(rt->needs_rebuild, ck.needs_rebuild);
  ASSERT_EQ(rt->lp_x.size(), ck.lp_x.size());
  for (std::size_t i = 0; i < ck.lp_x.size(); ++i) {
    EXPECT_TRUE(SameBits(rt->lp_x[i], ck.lp_x[i]));
  }
  ASSERT_EQ(rt->lp_dual.size(), ck.lp_dual.size());
  for (std::size_t i = 0; i < ck.lp_dual.size(); ++i) {
    EXPECT_TRUE(SameBits(rt->lp_dual[i], ck.lp_dual[i]));
  }
  ASSERT_EQ(rt->edge_len.size(), ck.edge_len.size());
  for (std::size_t i = 0; i < ck.edge_len.size(); ++i) {
    EXPECT_TRUE(SameBits(rt->edge_len[i], ck.edge_len[i]));
  }
  EXPECT_EQ(rt->last.status.code(), ck.last.status.code());
  EXPECT_EQ(rt->last.tier, ck.last.tier);
  EXPECT_TRUE(SameBits(rt->last.cost, ck.last.cost));
  EXPECT_TRUE(SameBits(rt->last.stats.min_delay, ck.last.stats.min_delay));
  EXPECT_TRUE(SameBits(rt->last.stats.max_delay, ck.last.stats.max_delay));
  EXPECT_EQ(rt->last.lp_rows, ck.last.lp_rows);
  EXPECT_EQ(rt->last.lp_iterations, ck.last.lp_iterations);
  EXPECT_EQ(rt->last.warm_started, ck.last.warm_started);
}

TEST(CheckpointCodec, InfUpperBoundsSurvive) {
  auto session = MakeSession(8, 5, 0.9, 1.3);
  ASSERT_NE(session, nullptr);
  EcoEdit unbound;
  unbound.kind = EcoEditKind::kSetBounds;
  unbound.sink = 2;
  unbound.lo = 0.9 * session->InitialRadius();
  unbound.hi = kLpInf;
  ASSERT_TRUE(session->Apply(unbound).ok());
  const EcoCheckpoint ck = session->Checkpoint();
  Result<EcoCheckpoint> rt = DecodeCheckpoint(EncodeCheckpoint(ck));
  ASSERT_TRUE(rt.ok()) << rt.status().ToString();
  EXPECT_EQ(rt->bounds[2].hi, kLpInf);
  auto restored = EcoSession::Restore(std::move(*rt));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectTwinState(*session, **restored);
}

TEST(CheckpointCodec, ApproxBytesGrowsWithInstance) {
  auto small = MakeSession(8, 2);
  auto large = MakeSession(40, 2);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  EXPECT_LT(ApproxSessionBytes(small->Checkpoint()),
            ApproxSessionBytes(large->Checkpoint()));
}

// ---------------------------------------------------------------------- //
// Corrupt-input matrix: every damaged spill yields an error, never a crash
// or a half-built session.

std::string ReplaceFirst(std::string text, const std::string& needle,
                         const std::string& with) {
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  if (at != std::string::npos) text.replace(at, needle.size(), with);
  return text;
}

// Rewrite the first line whose first token is `tag`: replace its token
// number `field` (0 is the tag) with `with`, or append `with` as a new last
// token when `field` is past the end.
std::string EditField(const std::string& text, const std::string& tag,
                      std::size_t field, const std::string& with) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string t; ls >> t;) tokens.push_back(t);
    if (!done && !tokens.empty() && tokens[0] == tag) {
      if (field < tokens.size()) {
        tokens[field] = with;
      } else {
        tokens.push_back(with);
      }
      line.clear();
      for (const std::string& t : tokens) line += (line.empty() ? "" : " ") + t;
      done = true;
    }
    out += line + "\n";
  }
  EXPECT_TRUE(done) << "no '" << tag << "' line";
  return out;
}

TEST(CheckpointCorrupt, DecoderRejectsStructuralDamage) {
  auto session = MakeSession(9, 23);
  ASSERT_NE(session, nullptr);
  const std::string good = EncodeCheckpoint(session->Checkpoint());
  ASSERT_TRUE(DecodeCheckpoint(good).ok());

  const std::vector<std::pair<std::string, std::string>> damaged = {
      {"empty input", ""},
      {"bad magic", ReplaceFirst(good, "lubt-checkpoint v1", "lubt-tree v1")},
      {"truncated", good.substr(0, good.size() / 2)},
      {"missing end", ReplaceFirst(good, "end", "")},
      {"garbage tag", ReplaceFirst(good, "radius", "radiant")},
      {"negative count", ReplaceFirst(good, "sinks 9", "sinks -4")},
      {"absurd count", ReplaceFirst(good, "sinks 9", "sinks 99999999")},
      {"bad hex double", ReplaceFirst(good, "v 0x", "v zz")},
      {"garbage trailer", good + "surprise\n"},
      // Strict tokens: a trailing token on any record line...
      {"trailing source", EditField(good, "source", 9, "1")},
      {"trailing radius", EditField(good, "radius", 9, "0x1p+0")},
      {"trailing sinks", EditField(good, "sinks", 9, "0")},
      {"trailing s", EditField(good, "s", 9, "0x1p+0")},
      {"trailing b", EditField(good, "b", 9, "0x1p+0")},
      {"trailing mode", EditField(good, "mode", 9, "fixed")},
      {"trailing nodes", EditField(good, "nodes", 9, "1")},
      {"trailing t", EditField(good, "t", 9, "0")},
      {"trailing root", EditField(good, "root", 9, "0")},
      {"trailing model", EditField(good, "model", 9, "0x1p+0")},
      {"trailing pool", EditField(good, "pool", 9, "0")},
      {"trailing p", EditField(good, "p", 9, "0")},
      {"trailing state", EditField(good, "state", 9, "0")},
      {"trailing lpx", EditField(good, "lpx", 9, "0")},
      {"trailing v", EditField(good, "v", 9, "0x1p+0")},
      {"trailing last", EditField(good, "last", 99, "0")},
      {"trailing lastf", EditField(good, "lastf", 99, "0x1p+0")},
      {"trailing end", EditField(good, "end", 9, "end")},
      // ...a partly numeric integer...
      {"partial count", EditField(good, "sinks", 1, "12abc")},
      {"partial t", EditField(good, "t", 3, "12abc")},
      {"partial root", EditField(good, "root", 1, "12abc")},
      {"partial p", EditField(good, "p", 2, "12abc")},
      {"partial last", EditField(good, "last", 5, "12abc")},
      {"partial flag", EditField(good, "state", 1, "1x")},
      // ...a sign the encoder never writes...
      {"plus count", EditField(good, "sinks", 1, "+9")},
      {"plus t", EditField(good, "t", 3, "+3")},
      {"plus root", EditField(good, "root", 1, "+3")},
      {"plus p", EditField(good, "p", 1, "+3")},
      {"plus last", EditField(good, "last", 6, "+3")},
      // ...an int32 overflow...
      {"overflow t", EditField(good, "t", 3, "4294967296")},
      {"overflow root", EditField(good, "root", 1, "2147483648")},
      {"overflow p", EditField(good, "p", 1, "-2147483649")},
      {"overflow last", EditField(good, "last", 5, "2147483648")},
      // ...and flags outside {0, 1}.
      {"flag 2", EditField(good, "state", 2, "2")},
      {"warm flag 2", EditField(good, "last", 3, "2")},
      {"float junk", EditField(good, "v", 1, "0x1p+0junk")},
  };
  for (const auto& [label, text] : damaged) {
    const Result<EcoCheckpoint> decoded = DecodeCheckpoint(text);
    EXPECT_FALSE(decoded.ok()) << label;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << label;
    }
  }
}

// Every prefix of a good checkpoint — cut at a line break, mid-line or
// mid-token — is an error (the "end" line is last), never a crash. The
// sanitizer presets run this too.
TEST(CheckpointCorrupt, EveryTruncatedPrefixIsRejected) {
  auto session = MakeSession(9, 23);
  ASSERT_NE(session, nullptr);
  for (const EcoEdit& edit : OracleStream(*session, 23, 4)) {
    ASSERT_TRUE(session->Apply(edit).ok());
  }
  const std::string good = EncodeCheckpoint(session->Checkpoint());
  ASSERT_TRUE(DecodeCheckpoint(good).ok());
  ASSERT_NE(good.find("\np "), std::string::npos);  // a non-empty pool
  // Dropping only the final line break still leaves a complete "end" line.
  ASSERT_TRUE(DecodeCheckpoint(good.substr(0, good.size() - 1)).ok());
  for (std::size_t len = 0; len + 1 < good.size(); ++len) {
    const Result<EcoCheckpoint> decoded = DecodeCheckpoint(good.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << len;
  }
}

// Counts near each cap on inputs far too short to hold them: the decoder
// must fail on the missing records without first reserving for the claimed
// count (up to 2^28 doubles, 2.1 GB). tests/CMakeLists.txt also runs this
// test under a 400 MB address-space limit, where such a reservation throws.
TEST(CheckpointCorrupt, HostileCountsAreRejected) {
  const std::string head =
      "lubt-checkpoint v1\nname x\nsource 0\nradius 0x1p+0\n";
  const std::string topo =
      "sinks 1\ns 0x0p+0 0x0p+0\nb 0x0p+0 0x1p+0\nmode free\nnodes 1\n"
      "t -1 -1 0\nroot 0\nmodel 0 0x1p+0\n";
  const std::string state = topo + "pool 0\nstate 0 0\n";
  const std::vector<std::string> hostile = {
      head + "sinks 16777216\n",
      head + "sinks 0\nmode free\nnodes 67108864\n",
      head + topo + "pool 268435456\n",
      head + state + "lpx 268435456\n",
      head + state + "lpx 0\nlpdual 268435456\n",
      head + state + "lpx 0\nlpdual 0\nelen 268435456\n",
  };
  for (const std::string& text : hostile) {
    const Result<EcoCheckpoint> decoded = DecodeCheckpoint(text);
    ASSERT_FALSE(decoded.ok()) << text;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(CheckpointCorrupt, RestoreRejectsSemanticDamage) {
  auto session = MakeSession(9, 23);
  ASSERT_NE(session, nullptr);

  {
    EcoCheckpoint ck = session->Checkpoint();
    ck.bounds.pop_back();  // bounds arity != sinks
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
  {
    EcoCheckpoint ck = session->Checkpoint();
    ck.needs_rebuild = true;  // contradicts a live model
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
  {
    EcoCheckpoint ck = session->Checkpoint();
    ck.initial_radius = -2.0;
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
  {
    EcoCheckpoint ck = session->Checkpoint();
    ck.pool.push_back({0, 999});  // pair out of sink range
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
  {
    EcoCheckpoint ck = session->Checkpoint();
    if (!ck.lp_x.empty()) {
      ck.lp_x.pop_back();  // primal arity != model columns
      EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
    }
  }
  {
    EcoCheckpoint ck = session->Checkpoint();
    ck.edge_len.push_back(1.0);  // edge arity != node count
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
  {
    // Topology whose leaf count disagrees with the sink set.
    EcoCheckpoint ck = session->Checkpoint();
    ck.set.sinks.pop_back();
    ck.bounds.pop_back();
    EXPECT_FALSE(EcoSession::Restore(std::move(ck)).ok());
  }
}

TEST(CheckpointCorrupt, StoreLoadRoundTripAndMissingFile) {
  auto session = MakeSession(7, 31);
  ASSERT_NE(session, nullptr);
  const EcoCheckpoint ck = session->Checkpoint();
  const std::string path = "checkpoint_test_spill.ckpt";
  ASSERT_TRUE(StoreCheckpoint(ck, path).ok());
  Result<EcoCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeCheckpoint(*loaded), EncodeCheckpoint(ck));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadCheckpoint(path).ok());
}

// ---------------------------------------------------------------------- //
// Float codec oracle: printf("%a") and strtod are the reference.

// The smallest checkpoint the decoder accepts (one sink, one node), with
// `values` as its lp_x block.
EcoCheckpoint TinyCheckpoint(std::vector<double> values) {
  EcoCheckpoint ck;
  ck.set.sinks = {Point{0.0, 0.0}};
  ck.bounds = {DelayBounds{0.0, 1.0}};
  ck.topo.SetRoot(ck.topo.AddSinkNode(0), RootMode::kFreeSource);
  ck.lp_x = std::move(values);
  return ck;
}

std::string PrintfHex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The encoder formats doubles from their bits and the decoder parses its
// own canonical form directly; both must agree with printf("%a")/strtod
// byte for byte and bit for bit, over random bit patterns of every class.
TEST(CheckpointCodecOracle, HexDoublesMatchPrintfAndStrtod) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 1.5, -2.75, 3.0, 1024.0,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(), -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 0.1, 1e300, 1e-300};
  Rng rng(0x5eed);
  for (int k = 0; k < 120000; ++k) {
    std::uint64_t bits = rng.Next();
    switch (k % 4) {
      case 1:  // short mantissas: trailing zero nibbles of every length
        bits &= ~((std::uint64_t{1} << (4 * rng.UniformInt(14))) - 1);
        break;
      case 2:  // subnormals
        bits &= 0x800fffffffffffffULL;
        break;
      case 3:  // exponents near 0 (plain magnitudes)
        bits = (bits & 0x800fffffffffffffULL) |
               (static_cast<std::uint64_t>(1023 - 40 + rng.UniformInt(80))
                << 52);
        break;
      default:
        break;
    }
    values.push_back(std::bit_cast<double>(bits));
  }

  const std::string text = EncodeCheckpoint(TinyCheckpoint(values));
  std::istringstream in(text.substr(text.find("\nlpx ") + 1));
  std::string line;
  std::getline(in, line);
  ASSERT_EQ(line, "lpx " + std::to_string(values.size()));
  for (const double v : values) {
    ASSERT_TRUE(std::getline(in, line));
    ASSERT_EQ(line, "v " + PrintfHex(v)) << "bits " << Bits(v);
  }

  const Result<EcoCheckpoint> decoded = DecodeCheckpoint(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->lp_x.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double got = decoded->lp_x[i];
    if (std::isnan(values[i])) {
      EXPECT_TRUE(std::isnan(got)) << i;
      continue;
    }
    ASSERT_TRUE(SameBits(got, values[i])) << PrintfHex(values[i]);
    ASSERT_TRUE(SameBits(got, std::strtod(PrintfHex(values[i]).c_str(),
                                          nullptr)));
  }
}

// Literals the encoder never writes but strtod accepts keep strtod's value
// (the pre-fast-path decoder read every float through strtod).
TEST(CheckpointCodecOracle, NonCanonicalLiteralsDecodeAsStrtod) {
  const std::string text = EncodeCheckpoint(TinyCheckpoint({1.0}));
  const std::string canonical = "\nv 0x1p+0\n";
  for (const std::string literal :
       {"0X1.8P+1", "0x1.80p+1", "0x1.8p+01", "0x01p+0", "0x1p-0", "0x3p-1",
        "0x1.0000000000000p+0", "0x1.00000000000008p+0", "+0x1p+0", "1.5",
        "-2.5e-3", "infinity", "-INF", "NaN", "0x1p-1074", "0x1p-1030",
        "0x1p+1023", "0x1.fffffffffffff8p+1023", "-0x0.8p-1022", "0x0p-5",
        "1e400", "0x.8p+1"}) {
    const Result<EcoCheckpoint> decoded = DecodeCheckpoint(
        ReplaceFirst(text, canonical, "\nv " + literal + "\n"));
    ASSERT_TRUE(decoded.ok()) << literal << ": "
                              << decoded.status().ToString();
    const double want = std::strtod(literal.c_str(), nullptr);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(decoded->lp_x[0])) << literal;
    } else {
      EXPECT_TRUE(SameBits(decoded->lp_x[0], want)) << literal;
    }
  }
  for (const std::string literal :
       {"0x", "0x1p", "0x1p+", "0x1.p+", "0x1pp+0", "0x1p+-5", "1.5.", "--1",
        "0x1p+0x"}) {
    EXPECT_FALSE(
        DecodeCheckpoint(ReplaceFirst(text, canonical, "\nv " + literal + "\n"))
            .ok())
        << literal;
  }
}

}  // namespace
}  // namespace lubt
