#include "reference.h"

#include <fstream>
#include <sstream>

#include "ebf/solver.h"
#include "topo/nn_merge.h"

namespace perfbench {

using namespace lubt;

Reference LoadReference(const std::string& path, Outcome* out) {
  Reference reference;
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  Result<Json> doc = Json::Parse(text.str());
  out->Check(in.good() && doc.ok() && doc->IsObject(),
             "cannot read reference objectives from " + path);
  if (doc.ok() && doc->IsObject()) reference.doc = std::move(*doc);
  return reference;
}

double IndependentCost(const ColdNet& net) {
  const Topology topo = NnMergeTopology(net.set.sinks, net.set.source);
  EbfProblem problem;
  problem.topo = &topo;
  problem.sinks = net.set.sinks;
  problem.source = net.set.source;
  problem.bounds = WindowBounds(net.set, net.lower, net.upper);
  EbfSolveOptions options;
  options.separation = SeparationMode::kBruteForce;
  options.lp.factor_mode = IpmFactorMode::kSimplicial;
  options.lp.warm_start_lazy_rounds = false;
  const EbfSolveResult solved = SolveEbf(problem, options);
  return solved.ok() ? solved.cost : 0.0;
}

double ReferenceCost(const Reference& reference, const ColdNet& net,
                     bool smoke) {
  const Json* costs = reference.doc.Find("costs");
  const Json* cost = costs == nullptr ? nullptr : costs->Find(net.name);
  if (!smoke && cost != nullptr && cost->IsNumber()) return cost->AsNumber();
  return IndependentCost(net);
}

}  // namespace perfbench
