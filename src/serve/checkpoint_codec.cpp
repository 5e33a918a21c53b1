#include "serve/checkpoint_codec.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string_view>
#include <system_error>
#include <vector>

namespace lubt {
namespace {

constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;

char HexDigit(unsigned nibble) {
  return static_cast<char>(nibble < 10 ? '0' + nibble : 'a' + (nibble - 10));
}

// Appends v exactly as printf("%a") prints it: C99 hex floats round-trip
// every double bit for bit, and strtod reads back inf/-inf (the kLpInf
// bounds) and the sign of zero. Normal doubles and zeros are formatted
// from the bit pattern (glibc's output: "[-]0x1[.h...]p±e" with trailing
// zero nibbles dropped, "[-]0x0p+0"); subnormals, inf and nan are rare
// enough to go through snprintf itself.
void AppendHexDouble(double v, std::string* out) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  std::uint64_t mantissa = bits & kMantissaMask;
  if (biased == 0x7ff || (biased == 0 && mantissa != 0)) {
    char buf[48];
    const int n = std::snprintf(buf, sizeof(buf), "%a", v);
    out->append(buf, static_cast<std::size_t>(n));
    return;
  }
  char buf[32];
  char* p = buf;
  if ((bits >> 63) != 0) *p++ = '-';
  *p++ = '0';
  *p++ = 'x';
  if (biased == 0) {
    *p++ = '0';
    *p++ = 'p';
    *p++ = '+';
    *p++ = '0';
  } else {
    *p++ = '1';
    if (mantissa != 0) {
      *p++ = '.';
      for (int nibbles = 13 - std::countr_zero(mantissa) / 4; nibbles > 0;
           --nibbles) {
        *p++ = HexDigit(static_cast<unsigned>(mantissa >> 48));
        mantissa = (mantissa << 4) & kMantissaMask;
      }
    }
    const int exponent = biased - 1023;
    *p++ = 'p';
    *p++ = exponent < 0 ? '-' : '+';
    p = std::to_chars(p, buf + sizeof(buf), std::abs(exponent)).ptr;
  }
  out->append(buf, p);
}

// Parses "[-]0x1[.h...]p±e" (1 to 13 lowercase hex digits, e in the normal
// range [-1022, 1023]) and "[-]0x0p+0": AppendHexDouble's output for every
// normal double and zero. Such a literal is exactly representable, so the
// bits assembled here are the ones strtod returns. Returns false for
// anything else (the caller falls back to strtod).
bool ParseCanonicalHex(std::string_view t, double* out) {
  std::uint64_t sign = 0;
  if (!t.empty() && t.front() == '-') {
    sign = std::uint64_t{1} << 63;
    t.remove_prefix(1);
  }
  if (t.size() < 6 || t[0] != '0' || t[1] != 'x') return false;
  if (t.substr(2) == "0p+0") {
    *out = std::bit_cast<double>(sign);
    return true;
  }
  if (t[2] != '1') return false;
  std::size_t i = 3;
  std::uint64_t mantissa = 0;
  if (t[i] == '.') {
    const std::size_t first = ++i;
    for (; i < t.size() && i - first < 13; ++i) {
      const char c = t[i];
      unsigned nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<unsigned>(c - 'a' + 10);
      } else {
        break;
      }
      mantissa = (mantissa << 4) | nibble;
    }
    const std::size_t digits = i - first;
    if (digits == 0) return false;
    mantissa <<= 4 * (13 - digits);
  }
  if (i + 2 >= t.size() || t[i] != 'p' ||
      (t[i + 1] != '+' && t[i + 1] != '-')) {
    return false;
  }
  const bool negative_exp = t[i + 1] == '-';
  const std::string_view e = t.substr(i + 2);
  if (e[0] < '0' || e[0] > '9') return false;  // from_chars would take '-'
  int exponent = 0;
  const auto [end, ec] =
      std::from_chars(e.data(), e.data() + e.size(), exponent);
  if (ec != std::errc() || end != e.data() + e.size() ||
      exponent > (negative_exp ? 1022 : 1023)) {
    return false;
  }
  if (negative_exp) exponent = -exponent;
  const auto biased = static_cast<std::uint64_t>(exponent + 1023);
  *out = std::bit_cast<double>(sign | (biased << 52) | mantissa);
  return true;
}

// Any other literal strtod accepts (uppercase hex, decimal, "infinity",
// the subnormals and nan AppendHexDouble leaves to snprintf) keeps
// strtod's value, so files readable before the fast path stay readable.
bool ParseDouble(std::string_view token, double* out) {
  if (ParseCanonicalHex(token, out)) return true;
  const std::string copy(token);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size();
}

// The C locale's isspace set — what operator>> split on before.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Line-oriented reader over the whole text: one string_view cursor, lines
// split in place, fields read as whitespace-separated tokens. Every record
// line is strict — each field must parse in full and nothing may follow
// the last one — except `name` and `lastmsg`, which take the rest of the
// line.
class Decoder {
 public:
  explicit Decoder(std::string_view text) : rest_(text) {}

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("checkpoint line " +
                                   std::to_string(line_no_) + ": " + what);
  }

  /// Advance to the next non-empty line; false at end of input.
  bool NextLine() {
    while (!rest_.empty()) {
      const std::size_t nl = rest_.find('\n');
      line_ = rest_.substr(0, nl);
      rest_.remove_prefix(nl == std::string_view::npos ? rest_.size() : nl + 1);
      ++line_no_;
      if (!line_.empty()) return true;
    }
    return false;
  }

  std::string_view line() const { return line_; }

  /// Read the next line and require `tag` as its first token; the fields
  /// after it are left for Int/Double/Rest.
  Status Expect(std::string_view tag) {
    if (!NextLine()) {
      return Fail("truncated: expected '" + std::string(tag) + "'");
    }
    const std::string_view got = Token();
    if (got != tag) {
      return Fail("expected '" + std::string(tag) + "', got '" +
                  std::string(got) + "'");
    }
    return Status::Ok();
  }

  /// The whole next field as an integer: no sign but '-', no trailing
  /// characters, no overflow of T.
  template <typename T>
  Status Int(const char* what, T* out) {
    const std::string_view token = Token();
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), *out);
    if (token.empty() || ec != std::errc() ||
        end != token.data() + token.size()) {
      return Fail(std::string("malformed integer for ") + what);
    }
    return Status::Ok();
  }

  /// A 0/1 flag.
  Status Flag(const char* what, bool* out) {
    int v = 0;
    LUBT_RETURN_IF_ERROR(Int(what, &v));
    if (v != 0 && v != 1) return Fail(std::string("bad ") + what);
    *out = v == 1;
    return Status::Ok();
  }

  Status Double(const char* what, double* out) {
    const std::string_view token = Token();
    if (token.empty() || !ParseDouble(token, out)) {
      return Fail(std::string("malformed float for ") + what);
    }
    return Status::Ok();
  }

  /// A record count in [lo, hi].
  Status Count(const char* what, long long lo, long long hi, long long* out) {
    LUBT_RETURN_IF_ERROR(Int(what, out));
    if (*out < lo || *out > hi) return Fail(std::string("bad ") + what);
    return Status::Ok();
  }

  /// The rest of the line after the tag, minus the one separating space.
  std::string Rest() {
    std::string_view rest = line_;
    if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    line_ = {};
    return std::string(rest);
  }

  /// Require that the line holds nothing after its last field.
  Status Done() {
    const std::string_view extra = Token();
    if (!extra.empty()) {
      return Fail("trailing token '" + std::string(extra) + "'");
    }
    return Status::Ok();
  }

  /// A reservation for `count` records, capped by how many records of at
  /// least `min_record_bytes` the unread input can hold: a hostile count
  /// cannot allocate more than the file could fill. (sizeof of a minimal
  /// record literal counts its line break as the terminating NUL.)
  std::size_t Capacity(long long count, std::size_t min_record_bytes) const {
    return std::min(static_cast<std::size_t>(count),
                    rest_.size() / min_record_bytes);
  }

  Status DoubleBlock(const std::string& tag, std::vector<double>* out) {
    LUBT_RETURN_IF_ERROR(Expect(tag));
    long long count = 0;
    LUBT_RETURN_IF_ERROR(Count((tag + " count").c_str(), 0, 1LL << 28, &count));
    LUBT_RETURN_IF_ERROR(Done());
    out->clear();
    out->reserve(Capacity(count, sizeof("v 0")));
    for (long long i = 0; i < count; ++i) {
      double v = 0.0;
      LUBT_RETURN_IF_ERROR(Expect("v"));
      LUBT_RETURN_IF_ERROR(Double(tag.c_str(), &v));
      LUBT_RETURN_IF_ERROR(Done());
      out->push_back(v);
    }
    return Status::Ok();
  }

  /// The next whitespace-separated field of the line (empty at its end).
  std::string_view Token() {
    std::size_t i = 0;
    while (i < line_.size() && IsSpace(line_[i])) ++i;
    std::size_t j = i;
    while (j < line_.size() && !IsSpace(line_[j])) ++j;
    const std::string_view token = line_.substr(i, j - i);
    line_.remove_prefix(j);
    return token;
  }

 private:
  std::string_view rest_;
  std::string_view line_;
  int line_no_ = 0;
};

// Rebuild a Topology by replaying nodes in id order, with the same
// pre-validation as io/tree_io.cpp so the builder's asserts can't fire on
// corrupt input.
Status ReplayTopology(const std::vector<std::array<std::int32_t, 3>>& raw,
                      std::int32_t root, RootMode mode, Topology* out) {
  const auto n = static_cast<std::int32_t>(raw.size());
  if (n == 0) return Status::InvalidArgument("checkpoint: topology empty");
  for (std::int32_t id = 0; id < n; ++id) {
    const std::int32_t left = raw[static_cast<std::size_t>(id)][0];
    const std::int32_t right = raw[static_cast<std::size_t>(id)][1];
    const std::int32_t sink = raw[static_cast<std::size_t>(id)][2];
    if (left == kInvalidNode && right == kInvalidNode) {
      if (sink < 0) {
        return Status::InvalidArgument("checkpoint: leaf node " +
                                       std::to_string(id) + " without sink");
      }
      out->AddSinkNode(sink);
    } else if (right == kInvalidNode) {
      if (left < 0 || left >= id || out->Parent(left) != kInvalidNode) {
        return Status::InvalidArgument(
            "checkpoint: bad unary child of node " + std::to_string(id));
      }
      out->AddUnaryNode(left);
    } else {
      if (left < 0 || left >= id || right < 0 || right >= id ||
          left == right || out->Parent(left) != kInvalidNode ||
          out->Parent(right) != kInvalidNode) {
        return Status::InvalidArgument(
            "checkpoint: bad children of node " + std::to_string(id));
      }
      out->AddInternalNode(left, right);
    }
  }
  if (root < 0 || root >= n || out->Parent(root) != kInvalidNode) {
    return Status::InvalidArgument("checkpoint: bad root id");
  }
  if (mode == RootMode::kFixedSource) {
    const TopoNode& r = out->Node(root);
    if (r.left == kInvalidNode || r.right != kInvalidNode || r.sink >= 0) {
      return Status::InvalidArgument(
          "checkpoint: fixed-source root must be unary Steiner");
    }
  }
  out->SetRoot(root, mode);
  return Status::Ok();
}

// A record of space-separated doubles: "tag a b ...\n".
void AppendDoubles(const char* tag, std::initializer_list<double> values,
                   std::string* out) {
  out->append(tag);
  for (const double v : values) {
    out->push_back(' ');
    AppendHexDouble(v, out);
  }
  out->push_back('\n');
}

// A record of space-separated integers: "tag a b ...\n".
void AppendInts(const char* tag, std::initializer_list<long long> values,
                std::string* out) {
  out->append(tag);
  for (const long long v : values) {
    char buf[24];
    buf[0] = ' ';
    out->append(buf, std::to_chars(buf + 1, buf + sizeof(buf), v).ptr);
  }
  out->push_back('\n');
}

// "tag count\n" and one "v x\n" record per value.
void AppendDoubleBlock(const char* tag, const std::vector<double>& values,
                       std::string* out) {
  AppendInts(tag, {static_cast<long long>(values.size())}, out);
  for (const double v : values) AppendDoubles("v", {v}, out);
}

// The two free-text fields (instance name, status message) are single-line
// by construction everywhere in the library, but a hostile client can put
// anything in a session name — fold line breaks so they cannot corrupt the
// line-oriented format.
void AppendOneLine(std::string_view s, std::string* out) {
  for (const char c : s) out->push_back(c == '\n' || c == '\r' ? ' ' : c);
}

}  // namespace

std::string EncodeCheckpoint(const EcoCheckpoint& ck) {
  // Upper bounds per record: a hex double is at most 24 bytes, an int32 11.
  const std::size_t doubles =
      ck.lp_x.size() + ck.lp_dual.size() + ck.edge_len.size();
  std::string out;
  out.reserve(512 + ck.set.name.size() + ck.last.status.message().size() +
              104 * ck.set.sinks.size() +
              38 * static_cast<std::size_t>(ck.topo.NumNodes()) +
              26 * ck.pool.size() + 27 * doubles);
  out.append("lubt-checkpoint v1\nname ");
  AppendOneLine(ck.set.name, &out);
  out.push_back('\n');
  if (ck.set.source.has_value()) {
    AppendDoubles("source 1", {ck.set.source->x, ck.set.source->y}, &out);
  } else {
    out.append("source 0\n");
  }
  AppendDoubles("radius", {ck.initial_radius}, &out);
  AppendInts("sinks", {static_cast<long long>(ck.set.sinks.size())}, &out);
  for (const Point& p : ck.set.sinks) AppendDoubles("s", {p.x, p.y}, &out);
  for (const DelayBounds& b : ck.bounds) AppendDoubles("b", {b.lo, b.hi}, &out);
  out.append(ck.topo.Mode() == RootMode::kFixedSource ? "mode fixed\n"
                                                      : "mode free\n");
  AppendInts("nodes", {ck.topo.NumNodes()}, &out);
  for (NodeId id = 0; id < ck.topo.NumNodes(); ++id) {
    const TopoNode& node = ck.topo.Node(id);
    AppendInts("t", {node.left, node.right, node.sink}, &out);
  }
  AppendInts("root", {ck.topo.Root()}, &out);
  AppendDoubles(ck.has_model ? "model 1" : "model 0", {ck.scale}, &out);
  AppendInts("pool", {static_cast<long long>(ck.pool.size())}, &out);
  for (const std::array<std::int32_t, 2>& pr : ck.pool) {
    AppendInts("p", {pr[0], pr[1]}, &out);
  }
  AppendInts("state", {ck.lp_valid, ck.needs_rebuild}, &out);
  AppendDoubleBlock("lpx", ck.lp_x, &out);
  AppendDoubleBlock("lpdual", ck.lp_dual, &out);
  AppendDoubleBlock("elen", ck.edge_len, &out);
  const EcoSolveInfo& last = ck.last;
  AppendInts("last",
             {static_cast<int>(last.status.code()),
              static_cast<int>(last.tier), last.warm_started,
              last.symbolic_reused, last.lp_rows, last.lp_iterations,
              last.lazy_rounds, last.rows_added, last.rows_refreshed,
              last.cold_retries},
             &out);
  AppendDoubles("lastf",
                {last.cost, last.objective, last.stats.cost,
                 last.stats.min_delay, last.stats.max_delay, last.seconds},
                &out);
  out.append("lastmsg ");
  AppendOneLine(last.status.message(), &out);
  out.append("\nend\n");
  return out;
}

Result<EcoCheckpoint> DecodeCheckpoint(const std::string& text) {
  Decoder d(text);
  EcoCheckpoint ck;
  if (!d.NextLine() || d.line() != "lubt-checkpoint v1") {
    return Status::InvalidArgument(
        "checkpoint: missing 'lubt-checkpoint v1' header");
  }
  LUBT_RETURN_IF_ERROR(d.Expect("name"));
  ck.set.name = d.Rest();

  LUBT_RETURN_IF_ERROR(d.Expect("source"));
  bool has_source = false;
  LUBT_RETURN_IF_ERROR(d.Flag("source flag", &has_source));
  if (has_source) {
    Point p;
    LUBT_RETURN_IF_ERROR(d.Double("source.x", &p.x));
    LUBT_RETURN_IF_ERROR(d.Double("source.y", &p.y));
    ck.set.source = p;
  }
  LUBT_RETURN_IF_ERROR(d.Done());

  LUBT_RETURN_IF_ERROR(d.Expect("radius"));
  LUBT_RETURN_IF_ERROR(d.Double("radius", &ck.initial_radius));
  LUBT_RETURN_IF_ERROR(d.Done());

  long long num_sinks = 0;
  LUBT_RETURN_IF_ERROR(d.Expect("sinks"));
  LUBT_RETURN_IF_ERROR(d.Count("sink count", 0, 1LL << 24, &num_sinks));
  LUBT_RETURN_IF_ERROR(d.Done());
  // Each sink takes an "s" and a "b" record.
  ck.set.sinks.reserve(d.Capacity(num_sinks, 2 * sizeof("s 0 0")));
  for (long long i = 0; i < num_sinks; ++i) {
    Point p;
    LUBT_RETURN_IF_ERROR(d.Expect("s"));
    LUBT_RETURN_IF_ERROR(d.Double("sink.x", &p.x));
    LUBT_RETURN_IF_ERROR(d.Double("sink.y", &p.y));
    LUBT_RETURN_IF_ERROR(d.Done());
    ck.set.sinks.push_back(p);
  }
  ck.bounds.reserve(d.Capacity(num_sinks, sizeof("b 0 0")));
  for (long long i = 0; i < num_sinks; ++i) {
    DelayBounds b;
    LUBT_RETURN_IF_ERROR(d.Expect("b"));
    LUBT_RETURN_IF_ERROR(d.Double("bound.lo", &b.lo));
    LUBT_RETURN_IF_ERROR(d.Double("bound.hi", &b.hi));
    LUBT_RETURN_IF_ERROR(d.Done());
    ck.bounds.push_back(b);
  }

  LUBT_RETURN_IF_ERROR(d.Expect("mode"));
  RootMode mode = RootMode::kFreeSource;
  const std::string_view m = d.Token();
  if (m == "fixed") {
    mode = RootMode::kFixedSource;
  } else if (m != "free") {
    return d.Fail("unknown mode '" + std::string(m) + "'");
  }
  LUBT_RETURN_IF_ERROR(d.Done());

  long long num_nodes = 0;
  LUBT_RETURN_IF_ERROR(d.Expect("nodes"));
  LUBT_RETURN_IF_ERROR(d.Count("node count", 1, 1LL << 26, &num_nodes));
  LUBT_RETURN_IF_ERROR(d.Done());
  std::vector<std::array<std::int32_t, 3>> raw;
  raw.reserve(d.Capacity(num_nodes, sizeof("t 0 0 0")));
  for (long long i = 0; i < num_nodes; ++i) {
    std::array<std::int32_t, 3> node{};
    LUBT_RETURN_IF_ERROR(d.Expect("t"));
    LUBT_RETURN_IF_ERROR(d.Int("node.left", &node[0]));
    LUBT_RETURN_IF_ERROR(d.Int("node.right", &node[1]));
    LUBT_RETURN_IF_ERROR(d.Int("node.sink", &node[2]));
    LUBT_RETURN_IF_ERROR(d.Done());
    raw.push_back(node);
  }
  std::int32_t root = -1;
  LUBT_RETURN_IF_ERROR(d.Expect("root"));
  LUBT_RETURN_IF_ERROR(d.Int("root", &root));
  LUBT_RETURN_IF_ERROR(d.Done());
  LUBT_RETURN_IF_ERROR(ReplayTopology(raw, root, mode, &ck.topo));

  LUBT_RETURN_IF_ERROR(d.Expect("model"));
  LUBT_RETURN_IF_ERROR(d.Flag("model flag", &ck.has_model));
  LUBT_RETURN_IF_ERROR(d.Double("scale", &ck.scale));
  LUBT_RETURN_IF_ERROR(d.Done());

  long long pool = 0;
  LUBT_RETURN_IF_ERROR(d.Expect("pool"));
  LUBT_RETURN_IF_ERROR(d.Count("pool count", 0, 1LL << 28, &pool));
  LUBT_RETURN_IF_ERROR(d.Done());
  ck.pool.reserve(d.Capacity(pool, sizeof("p 0 0")));
  for (long long i = 0; i < pool; ++i) {
    std::array<std::int32_t, 2> pr{};
    LUBT_RETURN_IF_ERROR(d.Expect("p"));
    LUBT_RETURN_IF_ERROR(d.Int("pair", &pr[0]));
    LUBT_RETURN_IF_ERROR(d.Int("pair", &pr[1]));
    LUBT_RETURN_IF_ERROR(d.Done());
    ck.pool.push_back(pr);
  }

  LUBT_RETURN_IF_ERROR(d.Expect("state"));
  LUBT_RETURN_IF_ERROR(d.Flag("state flags", &ck.lp_valid));
  LUBT_RETURN_IF_ERROR(d.Flag("state flags", &ck.needs_rebuild));
  LUBT_RETURN_IF_ERROR(d.Done());

  LUBT_RETURN_IF_ERROR(d.DoubleBlock("lpx", &ck.lp_x));
  LUBT_RETURN_IF_ERROR(d.DoubleBlock("lpdual", &ck.lp_dual));
  LUBT_RETURN_IF_ERROR(d.DoubleBlock("elen", &ck.edge_len));

  EcoSolveInfo& last = ck.last;
  int code = 0;
  int tier = 0;
  LUBT_RETURN_IF_ERROR(d.Expect("last"));
  LUBT_RETURN_IF_ERROR(d.Int("status code", &code));
  LUBT_RETURN_IF_ERROR(d.Int("tier", &tier));
  LUBT_RETURN_IF_ERROR(d.Flag("warm flag", &last.warm_started));
  LUBT_RETURN_IF_ERROR(d.Flag("symbolic flag", &last.symbolic_reused));
  LUBT_RETURN_IF_ERROR(d.Int("lp_rows", &last.lp_rows));
  LUBT_RETURN_IF_ERROR(d.Int("lp_iterations", &last.lp_iterations));
  LUBT_RETURN_IF_ERROR(d.Int("lazy_rounds", &last.lazy_rounds));
  LUBT_RETURN_IF_ERROR(d.Int("rows_added", &last.rows_added));
  LUBT_RETURN_IF_ERROR(d.Int("rows_refreshed", &last.rows_refreshed));
  LUBT_RETURN_IF_ERROR(d.Int("cold_retries", &last.cold_retries));
  LUBT_RETURN_IF_ERROR(d.Done());
  if (code < 0 || code > static_cast<int>(StatusCode::kUnavailable)) {
    return d.Fail("bad status code");
  }
  if (tier < 0 || tier > static_cast<int>(EcoTier::kColdRebuild)) {
    return d.Fail("bad tier");
  }
  last.tier = static_cast<EcoTier>(tier);

  LUBT_RETURN_IF_ERROR(d.Expect("lastf"));
  LUBT_RETURN_IF_ERROR(d.Double("last.cost", &last.cost));
  LUBT_RETURN_IF_ERROR(d.Double("last.objective", &last.objective));
  LUBT_RETURN_IF_ERROR(d.Double("last.stats.cost", &last.stats.cost));
  LUBT_RETURN_IF_ERROR(d.Double("last.stats.min", &last.stats.min_delay));
  LUBT_RETURN_IF_ERROR(d.Double("last.stats.max", &last.stats.max_delay));
  LUBT_RETURN_IF_ERROR(d.Double("last.seconds", &last.seconds));
  LUBT_RETURN_IF_ERROR(d.Done());

  LUBT_RETURN_IF_ERROR(d.Expect("lastmsg"));
  last.status = Status(static_cast<StatusCode>(code), d.Rest());

  LUBT_RETURN_IF_ERROR(d.Expect("end"));
  LUBT_RETURN_IF_ERROR(d.Done());
  // Anything after the end marker is damage (e.g. two checkpoints
  // concatenated by a partial overwrite) — refuse rather than guess.
  if (d.NextLine()) return d.Fail("trailing data after 'end'");
  return ck;
}

Status StoreCheckpoint(const EcoCheckpoint& checkpoint,
                       const std::string& path) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return Status::NotFound("cannot write checkpoint: " + path);
  const std::string text = EncodeCheckpoint(checkpoint);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return Status::Internal("short write on checkpoint: " + path);
  return Status::Ok();
}

Result<EcoCheckpoint> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read checkpoint: " + path);
  // Read straight into one string a chunk at a time until end of file (a
  // spill file fits one chunk), so nothing is sized from a reported length.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string text;
  std::size_t used = 0;
  do {
    text.resize(used + kChunk);
    in.read(text.data() + used, static_cast<std::streamsize>(kChunk));
    used += static_cast<std::size_t>(in.gcount());
  } while (in);
  if (in.bad()) return Status::Internal("cannot read checkpoint: " + path);
  text.resize(used);
  return DecodeCheckpoint(text);
}

std::size_t ApproxSessionBytes(const EcoCheckpoint& ck) {
  const std::size_t m = ck.set.sinks.size();
  const std::size_t n = static_cast<std::size_t>(ck.topo.NumNodes());
  const std::size_t rows = m + ck.pool.size();
  // Instance + topology + solved vectors, plus the reconstructed model
  // (roughly: a delay row touches a root path, a Steiner row two paths) and
  // factorization working set. Coefficients are deliberately generous.
  return 4096 + 64 * m + 64 * n + 24 * ck.lp_x.size() +
         24 * ck.lp_dual.size() + 24 * ck.edge_len.size() + 160 * rows;
}

}  // namespace lubt
