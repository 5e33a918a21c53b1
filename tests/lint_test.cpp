// Unit tests for the lubt_lint rule scanners (src/lint/). Each rule gets a
// positive fixture, a suppressed fixture, and a clean fixture; plus
// suppression parsing, the JSON report schema, and registry hygiene. The
// companion ctest `lubt_lint_tree` (tools/CMakeLists.txt) runs the real
// binary over src/ tools/ bench/ and asserts zero findings.

#include "lint/lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lubt::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& text) {
  return LintText(path, text);
}

std::vector<std::string> RuleNames(const std::vector<Finding>& findings) {
  std::vector<std::string> names;
  names.reserve(findings.size());
  for (const Finding& finding : findings) names.push_back(finding.rule);
  return names;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> names = RuleNames(findings);
  return static_cast<int>(std::count(names.begin(), names.end(), rule));
}

// ---------------------------------------------------------------------- //
// Registry

TEST(LintRegistry, TenRulesWithUniqueKebabNames) {
  const std::vector<Rule>& rules = Rules();
  EXPECT_EQ(rules.size(), 10u);
  std::vector<std::string> names;
  for (const Rule& rule : rules) {
    ASSERT_NE(rule.name, nullptr);
    ASSERT_NE(rule.summary, nullptr);
    names.emplace_back(rule.name);
    for (const char c : std::string(rule.name)) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '-')
          << "rule name not kebab-case: " << rule.name;
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

// ---------------------------------------------------------------------- //
// unchecked-result

TEST(UncheckedResult, FlagsValueWithoutGuard) {
  const auto findings = Lint("src/x/a.cpp",
                             "void F() {\n"
                             "  Result<int> r = Make();\n"
                             "  Use(r.value());\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "unchecked-result"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(UncheckedResult, OkGuardSilences) {
  const auto findings = Lint("src/x/a.cpp",
                             "void F() {\n"
                             "  Result<int> r = Make();\n"
                             "  if (!r.ok()) return;\n"
                             "  Use(r.value());\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-result"), 0);
}

TEST(UncheckedResult, SeesThroughStdMove) {
  const auto flagged = Lint(
      "src/x/a.cpp", "void F() { Use(std::move(res).value()); }\n");
  EXPECT_EQ(CountRule(flagged, "unchecked-result"), 1);

  const auto clean = Lint("src/x/a.cpp",
                          "void F() {\n"
                          "  if (!res.ok()) return;\n"
                          "  Use(std::move(res).value());\n"
                          "}\n");
  EXPECT_EQ(CountRule(clean, "unchecked-result"), 0);
}

TEST(UncheckedResult, HasValueGuardSilences) {
  const auto findings = Lint("src/x/a.cpp",
                             "void F() {\n"
                             "  if (opt.has_value()) Use(opt.value());\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-result"), 0);
}

TEST(UncheckedResult, SuppressionWaives) {
  const auto findings =
      Lint("src/x/a.cpp",
           "void F() {\n"
           "  Use(r.value());  // lubt-lint: allow(unchecked-result)\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "unchecked-result"), 0);
}

// ---------------------------------------------------------------------- //
// nondeterminism

TEST(Nondeterminism, FlagsRandCall) {
  const auto findings =
      Lint("src/x/a.cpp", "int F() { return rand() % 7; }\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 1);
}

TEST(Nondeterminism, FlagsRandomDeviceAndTime) {
  const auto findings = Lint("src/x/a.cpp",
                             "void F() {\n"
                             "  std::random_device entropy;\n"
                             "  long t = time(nullptr);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 2);
}

TEST(Nondeterminism, FlagsPointerToIntegerCast) {
  const auto findings = Lint(
      "src/x/a.cpp",
      "bool Less(const T* a, const T* b) {\n"
      "  return reinterpret_cast<std::uintptr_t>(a) <\n"
      "         reinterpret_cast<std::uintptr_t>(b);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 2);
}

TEST(Nondeterminism, MemberNamedTimeAndStringsAreClean) {
  const auto findings = Lint("src/x/a.cpp",
                             "void F() {\n"
                             "  double t = stage.time();\n"
                             "  Log(\"do not call rand() here\");\n"
                             "  int time = 3;\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 0);
}

TEST(Nondeterminism, SuppressionWaives) {
  const auto findings =
      Lint("src/x/a.cpp",
           "// seeding the demo from entropy is deliberate here\n"
           "// lubt-lint: allow(nondeterminism)\n"
           "std::random_device entropy;\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 0);
}

// ---------------------------------------------------------------------- //
// unordered-iteration

TEST(UnorderedIteration, FlagsRangeForOverUnorderedMember) {
  const auto findings =
      Lint("src/x/a.cpp",
           "std::unordered_map<int, double> weights;\n"
           "void Emit() {\n"
           "  for (const auto& kv : weights) Print(kv);\n"
           "}\n");
  ASSERT_EQ(CountRule(findings, "unordered-iteration"), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(UnorderedIteration, NonIteratingUseIsClean) {
  const auto findings =
      Lint("src/x/a.cpp",
           "std::unordered_set<std::int64_t> seen;\n"
           "bool F(std::int64_t k) { return seen.count(k) != 0; }\n");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0);
}

TEST(UnorderedIteration, SortedCopyTraversalIsClean) {
  const auto findings =
      Lint("src/x/a.cpp",
           "std::unordered_set<int> seen;\n"
           "void Emit() {\n"
           "  std::vector<int> sorted(seen.begin(), seen.end());\n"
           "  std::sort(sorted.begin(), sorted.end());\n"
           "  for (const int k : sorted) Print(k);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0);
}

TEST(UnorderedIteration, SuppressionWaives) {
  const auto findings =
      Lint("src/x/a.cpp",
           "std::unordered_set<int> seen;\n"
           "void Sum() {\n"
           "  // order-insensitive accumulation\n"
           "  // lubt-lint: allow(unordered-iteration)\n"
           "  for (const int k : seen) total += k;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0);
}

// ---------------------------------------------------------------------- //
// float-eq

TEST(FloatEq, FlagsNonSentinelLiteralComparison) {
  const auto eq = Lint("src/x/a.cpp", "bool F(double x) { return x == 0.5; }\n");
  EXPECT_EQ(CountRule(eq, "float-eq"), 1);
  const auto ne =
      Lint("src/x/a.cpp", "bool F(double x) { return 2.5 != x; }\n");
  EXPECT_EQ(CountRule(ne, "float-eq"), 1);
  const auto sci =
      Lint("src/x/a.cpp", "bool F(double x) { return x == 1e-9; }\n");
  EXPECT_EQ(CountRule(sci, "float-eq"), 1);
}

TEST(FloatEq, SentinelZeroAndOneAllowed) {
  const auto findings = Lint("src/x/a.cpp",
                             "bool F(double x, double w) {\n"
                             "  return x == 0.0 || w != 1.0 || x == -1.0;\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, "float-eq"), 0);
}

TEST(FloatEq, IntegerComparisonsAreClean) {
  const auto findings =
      Lint("src/x/a.cpp", "bool F(int n) { return n == 42 || n != 7; }\n");
  EXPECT_EQ(CountRule(findings, "float-eq"), 0);
}

TEST(FloatEq, SuppressionWaives) {
  const auto findings = Lint(
      "src/x/a.cpp",
      "bool F(double x) { return x == 0.5; }  // lubt-lint: allow(float-eq)\n");
  EXPECT_EQ(CountRule(findings, "float-eq"), 0);
}

// ---------------------------------------------------------------------- //
// finite-boundary

TEST(FiniteBoundary, FlagsDefinitionWithoutFiniteCheck) {
  const auto findings = Lint("src/lp/fake.cpp",
                             "LpSolution SolveLp(const LpModel& model) {\n"
                             "  LpSolution s;\n"
                             "  return s;\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, "finite-boundary"), 1);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(FiniteBoundary, CheckedDefinitionIsClean) {
  const auto findings =
      Lint("src/lp/fake.cpp",
           "LpSolution SolveLp(const LpModel& model) {\n"
           "  LpSolution s;\n"
           "  LUBT_DCHECK_FINITE(s.objective);\n"
           "  return s;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "finite-boundary"), 0);
}

TEST(FiniteBoundary, DeclarationsAndCallsAreClean) {
  const auto findings =
      Lint("src/lp/fake.cpp",
           "LpSolution SolveLp(const LpModel& model);\n"
           "void F() { auto s = SolveLp(m); auto e = SolveEbf(p, o); }\n");
  EXPECT_EQ(CountRule(findings, "finite-boundary"), 0);
}

TEST(FiniteBoundary, SuppressionWaives) {
  const auto findings =
      Lint("src/lp/fake.cpp",
           "// thin shim; the wrapped call checks\n"
           "// lubt-lint: allow(finite-boundary)\n"
           "LpSolution SolveLp(const LpModel& model) { return Inner(model); "
           "}\n");
  EXPECT_EQ(CountRule(findings, "finite-boundary"), 0);
}

// ---------------------------------------------------------------------- //
// include-guard

TEST(IncludeGuard, CanonicalGuardIsClean) {
  const auto findings = Lint("src/geom/foo.h",
                             "#ifndef LUBT_GEOM_FOO_H_\n"
                             "#define LUBT_GEOM_FOO_H_\n"
                             "#endif\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 0);
}

TEST(IncludeGuard, PathNormalizationSeesThroughDotDot) {
  // The ctest invocation passes tools/../src style paths; the guard rule
  // must resolve the same canonical name for them.
  const auto findings = Lint("/repo/tools/../src/geom/foo.h",
                             "#ifndef LUBT_GEOM_FOO_H_\n"
                             "#define LUBT_GEOM_FOO_H_\n"
                             "#endif\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 0);
}

TEST(IncludeGuard, FlagsWrongGuardMissingGuardAndBadDefine) {
  const auto wrong = Lint("src/geom/foo.h",
                          "#ifndef GEOM_FOO_H\n"
                          "#define GEOM_FOO_H\n"
                          "#endif\n");
  EXPECT_EQ(CountRule(wrong, "include-guard"), 1);

  const auto missing = Lint("src/geom/foo.h", "int x;\n");
  EXPECT_EQ(CountRule(missing, "include-guard"), 1);

  const auto bad_define = Lint("src/geom/foo.h",
                               "#ifndef LUBT_GEOM_FOO_H_\n"
                               "#define LUBT_GEOM_OTHER_H_\n"
                               "#endif\n");
  EXPECT_EQ(CountRule(bad_define, "include-guard"), 1);
}

TEST(IncludeGuard, CppFilesExempt) {
  const auto findings = Lint("src/geom/foo.cpp", "int x;\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 0);
}

// ---------------------------------------------------------------------- //
// using-namespace

TEST(UsingNamespace, HeaderDirectiveFlagged) {
  const auto findings = Lint("src/x/a.h",
                             "#ifndef LUBT_X_A_H_\n"
                             "#define LUBT_X_A_H_\n"
                             "using namespace lubt;\n"
                             "#endif\n");
  EXPECT_EQ(CountRule(findings, "using-namespace"), 1);
}

TEST(UsingNamespace, OnlyStdFlaggedInCpp) {
  const auto std_use = Lint("src/x/a.cpp", "using namespace std;\n");
  EXPECT_EQ(CountRule(std_use, "using-namespace"), 1);
  const auto own = Lint("src/x/a.cpp", "using namespace lubt::lint;\n");
  EXPECT_EQ(CountRule(own, "using-namespace"), 0);
}

// ---------------------------------------------------------------------- //
// bare-mutex

TEST(BareMutex, FlagsStdMutexFamily) {
  const auto findings = Lint("src/runtime/x.cpp",
                             "std::mutex mu;\n"
                             "void F() { std::lock_guard<std::mutex> l(mu); "
                             "}\n");
  EXPECT_EQ(CountRule(findings, "bare-mutex"), 3);
}

TEST(BareMutex, CheckDirectoryExemptAndNonStdClean) {
  const auto wrappers =
      Lint("src/check/mutex.h",
           "#ifndef LUBT_CHECK_MUTEX_H_\n"
           "#define LUBT_CHECK_MUTEX_H_\n"
           "class Mutex { std::mutex mu_; };\n"
           "#endif\n");
  EXPECT_EQ(CountRule(wrappers, "bare-mutex"), 0);

  const auto own = Lint("src/runtime/x.cpp", "lubt::Mutex mu;\n");
  EXPECT_EQ(CountRule(own, "bare-mutex"), 0);
}

// ---------------------------------------------------------------------- //
// serve-raw-io

TEST(ServeRawIo, FlagsRawSyscallsUnderServe) {
  const auto findings =
      Lint("src/serve/server.cpp",
           "void F(int fd) {\n"
           "  char buf[16];\n"
           "  read(fd, buf, sizeof(buf));\n"
           "  ::send(fd, buf, sizeof(buf), 0);\n"
           "  write(fd, buf, sizeof(buf));\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "serve-raw-io"), 3);
}

TEST(ServeRawIo, OtherDirectoriesAndMemberCallsClean) {
  // The rule is scoped to src/serve/ — raw I/O elsewhere is someone else's
  // contract (benchmark clients talk to sockets directly, by design).
  const auto elsewhere =
      Lint("perfbench/serve_eco.cpp", "void F(int fd) { read(fd, 0, 0); }\n");
  EXPECT_EQ(CountRule(elsewhere, "serve-raw-io"), 0);

  // Member function spellings are not syscalls.
  const auto member =
      Lint("src/serve/x.cpp",
           "void F(std::istream& in) { in.read(buf, 4); s->write(buf, 4); }\n");
  EXPECT_EQ(CountRule(member, "serve-raw-io"), 0);
}

TEST(ServeRawIo, FramingWaiverPattern) {
  // The idiom framing.cpp uses: an explicit allow on the line above each
  // raw call. The rule must honour it (that file owns the retry loops).
  const auto findings =
      Lint("src/serve/framing.cpp",
           "void F(int fd) {\n"
           "  // lubt-lint: allow(serve-raw-io)\n"
           "  ::send(fd, \"x\", 1, 0);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "serve-raw-io"), 0);
}

// ---------------------------------------------------------------------- //
// hot-loop-alloc

TEST(HotLoopAlloc, FlagsAllocationInSteadyStateKernel) {
  const auto findings =
      Lint("src/lp/sparse_chol.cpp",
           "bool SparseNormalFactor::FactorAttempt(double reg) {\n"
           "  scratch_.push_back(reg);\n"
           "  double* p = new double[8];\n"
           "  return p != nullptr;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "hot-loop-alloc"), 2);
}

TEST(HotLoopAlloc, ConstMethodBodyUnderGeomFlagged) {
  const auto findings =
      Lint("src/geom/octant.h",
           "#ifndef LUBT_GEOM_OCTANT_H_\n"
           "#define LUBT_GEOM_OCTANT_H_\n"
           "struct S {\n"
           "  void Merge(const S& o) const { buf_.resize(4); }\n"
           "};\n"
           "#endif  // LUBT_GEOM_OCTANT_H_\n");
  EXPECT_EQ(CountRule(findings, "hot-loop-alloc"), 1);
}

TEST(HotLoopAlloc, CallSitesColdFunctionsAndOtherDirsClean) {
  // Calls to hot-named members are uses, not definitions.
  const auto calls =
      Lint("src/lp/interior_point.cpp",
           "void F(SparseNormalFactor& f, OctantSoa& agg) {\n"
           "  f.Ereach(3);\n"
           "  agg.Merge(0, 1);\n"
           "}\n");
  EXPECT_EQ(CountRule(calls, "hot-loop-alloc"), 0);

  // Setup / analysis functions may allocate freely.
  const auto cold =
      Lint("src/lp/sparse_chol.cpp",
           "void SparseNormalFactor::Analyze(const CompiledLpModel& a) {\n"
           "  up_val_.assign(8, 0.0);\n"
           "}\n");
  EXPECT_EQ(CountRule(cold, "hot-loop-alloc"), 0);

  // Scope: only src/lp/, src/geom/ and src/search/ carry the no-alloc
  // contract.
  const auto elsewhere =
      Lint("src/topo/nn_merge.cpp",
           "void Cell::Merge(const Cell& o) { idx.push_back(1); }\n");
  EXPECT_EQ(CountRule(elsewhere, "hot-loop-alloc"), 0);
}

TEST(HotLoopAlloc, SearchRewireKernelFlagged) {
  // The annealer's per-proposal rewire kernel carries the same contract as
  // the lp/geom kernels: MoveScratch::Prepare is the only allocator.
  const auto findings =
      Lint("src/search/moves.cpp",
           "bool RewireMove(const Topology& base, const TopoMove& move,\n"
           "                MoveScratch* scratch) {\n"
           "  scratch->parent.push_back(kInvalidNode);\n"
           "  return true;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "hot-loop-alloc"), 1);
}

TEST(HotLoopAlloc, SuppressionWaives) {
  const auto findings =
      Lint("src/lp/sparse_chol.cpp",
           "bool SparseNormalFactor::FactorAttempt(double reg) {\n"
           "  // lubt-lint: allow(hot-loop-alloc)\n"
           "  scratch_.push_back(reg);\n"
           "  return true;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "hot-loop-alloc"), 0);
}

// ---------------------------------------------------------------------- //
// Suppressions

TEST(Suppressions, MultiRuleAllowList) {
  const auto findings =
      Lint("src/x/a.cpp",
           "// lubt-lint: allow(nondeterminism, float-eq)\n"
           "bool F(double x) { return rand() > 0 && x == 0.5; }\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Suppressions, WrongRuleNameDoesNotWaive) {
  const auto findings =
      Lint("src/x/a.cpp",
           "int F() { return rand(); }  // lubt-lint: allow(float-eq)\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 1);
}

TEST(Suppressions, OnlyAdjacentLinesCovered) {
  const auto findings = Lint("src/x/a.cpp",
                             "// lubt-lint: allow(nondeterminism)\n"
                             "int a;\n"
                             "int F() { return rand(); }\n");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 1);
}

// ---------------------------------------------------------------------- //
// Reports

TEST(Reports, FindingsSortedByFileLineRule) {
  const auto findings = Lint("src/x/a.cpp",
                             "int G() { return rand(); }\n"
                             "bool F(double x) { return x == 0.5; }\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LE(findings[0].line, findings[1].line);
  EXPECT_EQ(findings[0].rule, "nondeterminism");
  EXPECT_EQ(findings[1].rule, "float-eq");
}

TEST(Reports, JsonSchema) {
  EXPECT_EQ(FormatJson({}), "{\"version\":1,\"count\":0,\"findings\":[]}");

  std::vector<Finding> findings;
  findings.push_back(Finding{"float-eq", "src/a.cpp", 7, "say \"tol\"\n"});
  const std::string json = FormatJson(findings);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"float-eq\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"src/a.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("say \\\"tol\\\"\\n"), std::string::npos);
}

TEST(Reports, TextFormat) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"float-eq", "src/a.cpp", 7, "message"});
  EXPECT_EQ(FormatText(findings), "src/a.cpp:7: [float-eq] message\n");
}

// ---------------------------------------------------------------------- //
// Tokenizer corners the rules rely on

TEST(Tokenizer, LiteralsNeverLeakContents) {
  // A banned identifier inside a string, char, or comment is not a finding.
  const auto findings = Lint("src/x/a.cpp",
                             "const char* kMsg = \"rand() in a string\";\n"
                             "/* rand() in a block comment */\n"
                             "// rand() in a line comment\n"
                             "char c = 'r';\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Tokenizer, RawStringsSwallowedWhole) {
  const auto findings = Lint(
      "src/x/a.cpp",
      "const char* kFixture = R\"(rand(); x == 0.5; std::mutex)\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Tokenizer, FloatLiteralClassification) {
  EXPECT_TRUE(IsFloatLiteral("0.5"));
  EXPECT_TRUE(IsFloatLiteral("1e-9"));
  EXPECT_TRUE(IsFloatLiteral("2."));
  EXPECT_TRUE(IsFloatLiteral("0x1.8p3"));
  EXPECT_FALSE(IsFloatLiteral("42"));
  EXPECT_FALSE(IsFloatLiteral("0x1e5"));  // hex integer, 'e' is a digit
}

}  // namespace
}  // namespace lubt::lint
