// lubt_perfbench: one workload of the end-to-end benchmark per invocation.
//
//   lubt_perfbench --workload solve_cold|serve_eco|search_topo --seed N
//                  --seconds S --trace 0|1 --reference reference.json
//                  [--smoke]
//   lubt_perfbench --record-reference
//
// Prints a build header line, a report line (per-workload named values with
// their sample counts) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics when
// untraced, per-layer metrics when traced. Failed checks go to stderr.
// Timings from unoptimized or sanitizer builds are refused.

#include <cstdio>
#include <string>
#include <thread>

#include "harness.h"
#include "reference.h"
#include "util/args.h"
#include "workloads.h"

namespace {

using lubt::Json;
using perfbench::Outcome;
using perfbench::RunConfig;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "instrumented";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr const char* kSanitizer = "instrumented";
#else
constexpr const char* kSanitizer = "none";
#endif
#else
constexpr const char* kSanitizer = "none";
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

Json BuildHeader() {
  Json header = Json::MakeObject();
  header.Set("nproc", Json::MakeNumber(std::thread::hardware_concurrency()));
  header.Set("build_type", Json::MakeString(PERFBENCH_BUILD_TYPE));
  header.Set("optimized", Json::MakeBool(kOptimized));
  header.Set("sanitizer", Json::MakeString(kSanitizer));
  header.Set("compiler", Json::MakeString(PERFBENCH_COMPILER));
  return header;
}

// Reference objectives of the solve_cold nets from the independent solver
// configuration, in reference.json's format.
int RecordReference() {
  Json costs = Json::MakeObject();
  for (const perfbench::ColdNet& net : perfbench::SolveColdNets(false)) {
    if (!net.feasible) continue;
    const double cost = perfbench::IndependentCost(net);
    if (!(cost > 0.0)) {
      std::fprintf(stderr, "%s: independent solve failed\n", net.name.c_str());
      return 1;
    }
    costs.Set(net.name, Json::MakeNumber(cost));
  }
  Json doc = Json::MakeObject();
  doc.Set("solver", Json::MakeString("brute-force separation, simplicial "
                                     "factor, cold lazy rounds"));
  doc.Set("costs", std::move(costs));
  std::printf("%s\n", doc.Dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = lubt::ArgParser::Parse(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "smoke", "reference",
       "record-reference"});
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  const lubt::Result<int> seed = args->GetIntFlag("seed", 1, 0);
  const lubt::Result<int> seconds = args->GetIntFlag("seconds", 10, 1);
  const lubt::Result<int> trace = args->GetIntFlag("trace", 0, 0);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || *trace > 1) {
    std::fprintf(stderr, "bad --seed, --seconds or --trace\n");
    return 2;
  }
  if (!kOptimized || std::string(kSanitizer) != "none" ||
      std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
    std::fprintf(stderr,
                 "refusing to time an unoptimized or sanitizer build (%s)\n",
                 BuildHeader().Dump().c_str());
    return 3;
  }
  if (args->Has("record-reference")) {
    return RecordReference();
  }

  RunConfig config;
  config.workload = args->GetString("workload", "");
  config.seed = static_cast<std::uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace == 1;
  config.smoke = args->Has("smoke");
  config.reference_path = args->GetString("reference", "reference.json");

  Outcome out;
  if (config.workload == "solve_cold") {
    perfbench::RunSolveCold(config, &out);
  } else if (config.workload == "serve_eco") {
    perfbench::RunServeEco(config, &out);
  } else if (config.workload == "search_topo") {
    perfbench::RunSearchTopo(config, &out);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", config.workload.c_str());
    return 2;
  }
  for (const std::string& failure : out.failures()) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  Json header = BuildHeader();
  header.Set("workload", Json::MakeString(config.workload));
  header.Set("seed", Json::MakeNumber(static_cast<double>(config.seed)));
  header.Set("trace", Json::MakeBool(config.trace));
  std::printf("build %s\n", header.Dump().c_str());
  std::printf("report %s\n", out.ReportJson().Dump().c_str());

  Json result = Json::MakeObject();
  result.Set("correct", Json::MakeBool(out.failed() == 0));
  result.Set("attempted", Json::MakeNumber(static_cast<double>(out.attempted())));
  result.Set("failed", Json::MakeNumber(static_cast<double>(out.failed())));
  result.Set("metrics", out.MetricsJson());
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
