// Cold references for the column-generated master (eptas/milp_model.h) and
// the served masters they are checked on.
//
// solve_master runs column generation and branch-and-bound on one live
// simplex tableau. The references here rebuild the master over a given
// pool and solve it from scratch, the way the warm path must agree with:
//  * solve_master_lp: the LP relaxation by a cold lp::solve (test_master
//    runs column generation from scratch on top of it);
//  * solve_master_cold: the integral solve by a cold milp::solve.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "eptas/classify.h"
#include "eptas/config.h"
#include "eptas/milp_model.h"
#include "eptas/pattern.h"
#include "eptas/transform.h"

namespace bagsched::oracle {

/// One master at an instance's final EPTAS guess.
struct ServedMaster {
  std::string replay;  ///< "<family> seed <k>"
  eptas::Classification cls;
  eptas::Transformed transformed;
  eptas::PatternSpace space;
};

/// The request families the eptas-cache benchmark serves (eps 0.5; 24
/// jobs on 4 machines, replica 40 on 6).
inline constexpr const char* kServedFamilies[] = {
    "uniform", "planted", "bagheavy", "smallbags", "replica"};
inline constexpr double kServedEps = 0.5;

/// The masters of `family` at seeds 1..instances, each classified at the
/// final guess of a default-config eptas_schedule run; instances whose
/// pipeline never succeeded are skipped.
std::vector<ServedMaster> served_masters(const std::string& family,
                                         int instances);

/// The master LP relaxation over exactly `pool`, solved cold by lp::solve:
/// its optimum and the duals pricing reads. nullopt when the LP is not
/// solved to optimality.
struct MasterLp {
  double objective = 0.0;
  eptas::PricingDuals duals;
};
std::optional<MasterLp> solve_master_lp(const eptas::PatternSpace& space,
                                        const eptas::Transformed& transformed,
                                        const eptas::Classification& cls,
                                        const std::vector<eptas::Pattern>& pool);

/// The integral master over exactly `pool`, solved cold by milp::solve
/// under config.milp. nullopt when the search ends without an integral
/// solution.
struct MasterMilp {
  double objective = 0.0;
  bool penalty_free = false;  ///< every coverage row met by patterns
};
std::optional<MasterMilp> solve_master_cold(
    const eptas::PatternSpace& space, const eptas::Transformed& transformed,
    const eptas::Classification& cls, const eptas::EptasConfig& config,
    const std::vector<eptas::Pattern>& pool);

}  // namespace bagsched::oracle
