// The served ECO path: an in-process lubt_server (Dispatcher + Server on a
// unix socket) driven by closed-loop client threads, each of which waits for
// every reply before sending its next request.

#ifndef LUBT_PERFBENCH_SERVE_ECO_H_
#define LUBT_PERFBENCH_SERVE_ECO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "io/sink_set.h"

namespace perfbench {

/// One served traffic mix.
struct ServeSpec {
  std::vector<lubt::SinkSet> sessions;  ///< one instance per named session
  double lower = 1.0;                   ///< window, radius units
  double upper = 1.2;
  int clients = 1;   ///< client connections; session i belongs to i % clients
  int jobs = 1;      ///< dispatcher worker threads (never 0 = auto)
  int resident = 1;  ///< session cache entry budget, below sessions.size()
  double seconds = 1.0;  ///< closed-loop edit/query time after the opens
  int min_rounds = 1;    ///< edit/query rounds every session gets at least
  std::uint64_t seed = 1;  ///< edit stream seed
  int setup_reps = 1;      ///< server bring-ups timed for setup_s
};

/// What one served run measured and recorded.
struct ServeRun {
  std::vector<double> open_ms, edit_ms, query_ms;
  long long requests = 0;
  double window_s = 0.0;  ///< wall time of the opens and rounds
  double setup_s = 0.0;   ///< median server bring-up
  long long evictions = 0, restores = 0, rejected = 0;
  /// Per session: the edit scripts the server applied, in order (windows in
  /// initial-radius units, as sent), and the cost of the last query.
  std::vector<std::vector<std::string>> scripts;
  std::vector<double> final_cost;
};

/// Bring up a server in a fresh private directory under the working
/// directory (socket and spill files), open every session, drive edit +
/// query rounds round-robin until `seconds` pass (and every session had
/// `min_rounds`), read the stats op, shut down and remove the directory.
/// Every request is one checked operation in `out`.
ServeRun RunServeLoop(const ServeSpec& spec, Outcome* out);

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_SERVE_ECO_H_
