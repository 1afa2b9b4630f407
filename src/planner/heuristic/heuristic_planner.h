#ifndef SQPR_PLANNER_HEURISTIC_HEURISTIC_PLANNER_H_
#define SQPR_PLANNER_HEURISTIC_HEURISTIC_PLANNER_H_

#include <set>
#include <string>
#include <vector>

#include "model/catalog.h"
#include "model/cluster.h"
#include "plan/deployment.h"
#include "planner/heuristic/join_trees.h"
#include "planner/planner.h"
#include "planner/sqpr/model_builder.h"  // ObjectiveWeights, ResolveWeights

namespace sqpr {

/// Greedy single-shot admission: enumerates every abstract plan (join
/// order) for `query`, tries to realise each entirely on each host with
/// aggressive reuse of already-materialised streams, scores feasible
/// candidates with the weighted objective and commits the best one into
/// `deployment`. Returns true on admission. This is the §V-A heuristic's
/// core, shared with SqprPlanner's optional greedy fallback (the
/// "combine heuristics with SQPR" extension of §VII).
bool GreedyAdmit(const Cluster& cluster, Catalog* catalog, StreamId query,
                 const ObjectiveWeights& weights, Deployment* deployment);

/// The hand-crafted comparison planner of §V-A (inspired by Ahmad et
/// al. [15]):
///  * enumerates every abstract query plan (join order) for the new
///    query;
///  * for each abstract plan and each host h, tries to implement the
///    whole plan *at h*, aggressively reusing existing sub-query streams
///    (a reusable composite is fetched from the host that has it rather
///    than recomputed — "favouring the transfer of complete sub-queries
///    over base streams");
///  * scores every feasible candidate with the same weighted objective
///    SQPR uses and commits the best one.
/// Unlike SQPR it never revisits earlier placements and never spreads a
/// single query plan across multiple hosts.
class HeuristicPlanner : public Planner {
 public:
  struct Options {
    ObjectiveWeights weights;
  };

  HeuristicPlanner(const Cluster* cluster, Catalog* catalog, Options options);

  std::string name() const override { return "heuristic"; }
  Result<PlanningStats> SubmitQuery(StreamId query) override;
  const Deployment& deployment() const override { return deployment_; }
  const std::vector<StreamId>& admitted_queries() const override {
    return admitted_;
  }

 private:
  const Cluster* cluster_;
  Catalog* catalog_;
  Options options_;
  Deployment deployment_;
  std::vector<StreamId> admitted_;
};

}  // namespace sqpr

#endif  // SQPR_PLANNER_HEURISTIC_HEURISTIC_PLANNER_H_
