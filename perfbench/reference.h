// Reference objectives for the solve_cold nets. reference.json records the
// cost of every net of the full-size set, solved with an independent solver
// configuration; the smoke-size nets are solved that way at check time.

#ifndef LUBT_PERFBENCH_REFERENCE_H_
#define LUBT_PERFBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "serve/json.h"

namespace perfbench {

struct Reference {
  lubt::Json doc = lubt::Json::MakeObject();
};

/// Parse reference.json; a missing or malformed file is a failed check.
Reference LoadReference(const std::string& path, Outcome* out);

/// The recorded cost of `net` (full-size runs), else an independent solve.
double ReferenceCost(const Reference& reference, const ColdNet& net,
                     bool smoke);

/// Cost of `net` on its NN-merge topology from a solver configuration that
/// shares no optional kernel with the default one: brute-force
/// separation, simplicial factor, cold lazy rounds.
double IndependentCost(const ColdNet& net);

/// The solve_cold nets (solve_cold.cpp).
std::vector<ColdNet> SolveColdNets(bool smoke);

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_REFERENCE_H_
