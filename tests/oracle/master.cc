#include "oracle/master.h"

#include <numeric>

#include "eptas/eptas.h"
#include "gen/generators.h"
#include "lp/simplex.h"
#include "milp/branch_and_bound.h"
#include "util/grid.h"

namespace bagsched::oracle {

std::vector<ServedMaster> served_masters(const std::string& family,
                                         int instances) {
  const eptas::EptasConfig config;
  const util::EpsGrid grid(kServedEps);
  const bool replica = family == "replica";
  std::vector<ServedMaster> masters;
  for (int seed = 1; seed <= instances; ++seed) {
    const model::Instance instance =
        gen::by_name(family, replica ? 40 : 24, replica ? 6 : 4,
                     static_cast<std::uint64_t>(seed));
    const auto solved = eptas::eptas_schedule(instance, kServedEps, config);
    if (!solved.stats.pipeline_succeeded) continue;
    std::vector<double> rounded;
    for (const auto& job : instance.jobs()) {
      rounded.push_back(grid.value(
          grid.index_above(job.size / solved.stats.final_guess)));
    }
    auto cls = eptas::classify(instance, kServedEps, config, &rounded);
    if (!cls) continue;
    auto transformed = eptas::transform(instance, *cls);
    auto space = eptas::build_pattern_space(transformed, *cls);
    masters.push_back(ServedMaster{family + " seed " + std::to_string(seed),
                                   std::move(*cls), std::move(transformed),
                                   std::move(space)});
  }
  return masters;
}

std::optional<MasterLp> solve_master_lp(
    const eptas::PatternSpace& space, const eptas::Transformed& transformed,
    const eptas::Classification& cls,
    const std::vector<eptas::Pattern>& pool) {
  const eptas::MasterModel built =
      eptas::build_master_model(space, transformed, cls, pool);
  const lp::LpResult result = lp::solve(built.model);
  if (result.status != lp::SolveStatus::Optimal) return std::nullopt;
  return MasterLp{result.objective,
                  eptas::master_duals(space, built, result.duals)};
}

std::optional<MasterMilp> solve_master_cold(
    const eptas::PatternSpace& space, const eptas::Transformed& transformed,
    const eptas::Classification& cls, const eptas::EptasConfig& config,
    const std::vector<eptas::Pattern>& pool) {
  const eptas::MasterModel built =
      eptas::build_master_model(space, transformed, cls, pool);
  std::vector<int> integer_vars(pool.size());  // variable p is pool[p]
  std::iota(integer_vars.begin(), integer_vars.end(), 0);
  const milp::MilpResult result =
      milp::solve(built.model, integer_vars, config.milp);
  if (result.status != milp::MilpStatus::Optimal &&
      result.status != milp::MilpStatus::Feasible) {
    return std::nullopt;
  }
  MasterMilp answer{result.objective, true};
  for (const int penalty : built.penalty_vars) {
    if (result.x[static_cast<std::size_t>(penalty)] > 1e-6) {
      answer.penalty_free = false;
    }
  }
  return answer;
}

}  // namespace bagsched::oracle
