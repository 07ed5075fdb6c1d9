// Name-based solver registry: the single place that knows every scheduling
// algorithm in the library.
//
//   const auto& solver = api::SolverRegistry::global().resolve("eptas");
//   const auto result = solver.solve(instance, {.eps = 0.25});
//
// Registered names: "eptas", "exact", "exact-parallel", "milp", "lpt",
// "bag-lpt", "greedy-bags", "multifit", "local-search", "greedy-stack".
// "exact" and "exact-parallel" are one adapter over sched::solve_exact:
// the first always searches on one thread, the second on
// SolveOptions::num_threads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/solver.h"

namespace bagsched::api {

class SolverRegistry {
 public:
  /// The process-wide registry holding every built-in solver.
  static const SolverRegistry& global();

  /// Solver by name; throws std::invalid_argument listing the known names
  /// when `name` is not registered.
  const Solver& resolve(const std::string& name) const;

  /// Solver by name, nullptr when unknown.
  const Solver* find(const std::string& name) const;

  bool contains(const std::string& name) const {
    return find(name) != nullptr;
  }

  /// Registered names in registration order.
  std::vector<std::string> names() const;

  /// Metadata by name; throws like resolve() on unknown names.
  const SolverInfo& info(const std::string& name) const {
    return resolve(name).info();
  }

  /// All registered solvers in registration order.
  std::vector<const Solver*> all() const;

  std::size_t size() const { return solvers_.size(); }

 private:
  SolverRegistry();

  std::vector<std::unique_ptr<Solver>> solvers_;
};

}  // namespace bagsched::api
