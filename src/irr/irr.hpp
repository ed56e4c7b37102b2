#pragma once

// Irregular-workload suite for the work-stealing task runtime (src/par/task).
// The paper's §5.1 caveat about Java Grande lufact — a regular BLAS-1 loop
// says nothing about scheduling — cuts both ways: the NPB translation's
// chunk-queue SPMD shape is never stressed by the NPBs themselves.  These
// three kernels are the PBBS-style counterpoint: recursive parallelism with
// data-dependent subproblem sizes, where LIFO execution + FIFO stealing is
// the right schedule and a static partition is the wrong one.
//
//   SORT   parallel sample sort: oversampled splitters, blocked bucket
//          histograms, parallel distribution, recursive bucket sorts (the
//          recursion is the irregular part — bucket sizes are data-driven).
//   KNN    k-nearest-neighbor graph build over a 2-D point set (70% uniform,
//          30% clustered): grid binning plus an expanding-ring search whose
//          per-point cost varies with local density — the canonical
//          imbalance case for a static partition.
//   GETRF  blocked right-looking LU with partial pivoting: serial panel
//          factor, task-parallel per-column swap/solve/update of a trailing
//          matrix that shrinks every panel step.
//
// Every kernel is written once against a tiny execution-context abstraction
// (irr_impl.hpp) and runs under three personalities chosen by RunConfig:
// threads == 0 serial, --runtime=spmd region collectives (the default), and
// --runtime=steal task_scope with fork2/parallel_for.  Stealing randomizes
// execution order, so verification is by *invariants*, never bit-identity:
// SORT checks its output elementwise against a serial std::sort (sortedness
// and permutation at once), KNN checks neighbor-count/ordering invariants
// plus brute-force distance spot checks and a symmetric-neighbor test, and
// GETRF bounds the factorization residual max|PA - LU| / (n*eps*max|A|).
//
// The suite is registered separately from npb::suite() (irr_suite below) so
// every suite()-iterating consumer — differential matrices, `npbrun all`,
// the perf-smoke gate — is provably untouched by this PR.

#include <string_view>
#include <vector>

#include "npb/registry.hpp"

namespace npb {

RunResult run_sort(const RunConfig& cfg);
RunResult run_knn(const RunConfig& cfg);
RunResult run_getrf_irr(const RunConfig& cfg);

/// The irregular workloads (SORT, KNN, GETRF), reusing BenchmarkInfo so the
/// CLI handles both suites uniformly; structured_grid is
/// false for all three (they are the opposite of a structured grid).
const std::vector<BenchmarkInfo>& irr_suite();

/// Case-insensitive lookup in irr_suite(); nullptr when unknown.
RunFn find_irr_benchmark(std::string_view name);

}  // namespace npb
