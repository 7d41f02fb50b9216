// The neighborhood engine per registered model, kept out of problems.cpp:
// that unit sits at GCC's inline-unit-growth limit, and these instantiations
// there cost the multi-walk hot loop its inlined move pick (~8% fewer
// iterations/s on both perfbench workloads; 4-core x86-64, g++ 12.2).
#include "costas/model.hpp"
#include "par/neighborhood.hpp"
#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/queens.hpp"

namespace cas::runtime {

template <typename P>
core::RunStats solve_neighborhood(P& problem, const core::AsConfig& cfg, int threads,
                                  core::StopToken stop) {
  return par::ParallelNeighborhoodSearch<P>(problem, cfg, threads).solve(stop);
}

template core::RunStats solve_neighborhood(costas::CostasProblem&, const core::AsConfig&, int,
                                           core::StopToken);
template core::RunStats solve_neighborhood(problems::QueensProblem&, const core::AsConfig&, int,
                                           core::StopToken);
template core::RunStats solve_neighborhood(problems::AllIntervalProblem&, const core::AsConfig&,
                                           int, core::StopToken);
template core::RunStats solve_neighborhood(problems::MagicSquareProblem&, const core::AsConfig&,
                                           int, core::StopToken);
template core::RunStats solve_neighborhood(problems::LangfordProblem&, const core::AsConfig&, int,
                                           core::StopToken);
template core::RunStats solve_neighborhood(problems::PartitionProblem&, const core::AsConfig&, int,
                                           core::StopToken);
template core::RunStats solve_neighborhood(problems::AlphaProblem&, const core::AsConfig&, int,
                                           core::StopToken);

}  // namespace cas::runtime
