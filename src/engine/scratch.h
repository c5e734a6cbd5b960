// Per-worker reusable working memory for the batch engine.

#pragma once

#include <cstddef>
#include <vector>

#include "algo/m_partition.h"
#include "algo/ptas.h"
#include "core/types.h"

namespace lrb::engine {

/// One worker's arena, checked out of the BatchSolver's pool for the
/// duration of a single solve, or owned by a thread that passes it to
/// BatchSolver::solve_item (a server reactor). `warm` pre-sizes every
/// buffer so that steady-state solving of instances within the warmed
/// bounds performs no heap allocation in building the per-processor size
/// order or in the M-PARTITION scan (see docs/performance.md for what the
/// arena contract does and does not cover).
struct Scratch {
  MPartitionScratch m_partition;
  PtasScratch ptas;         ///< PTAS guess-scan arena
  std::vector<Size> loads;  ///< per-processor loads for result rechecks

  void warm(std::size_t max_jobs, ProcId max_procs) {
    m_partition.warm(max_jobs, max_procs);
    ptas.warm(max_jobs, max_procs);
    loads.reserve(max_procs);
  }
};

}  // namespace lrb::engine
