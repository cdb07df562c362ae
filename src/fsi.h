// Canonical public entry point for the fsi library.
//
//   #include "fsi.h"
//
//   fsi::Engine engine("Hybrid");
//   fsi::PreparedSet a = engine.Prepare(list_a);
//   fsi::PreparedSet b = engine.Prepare(list_b);
//   fsi::ElemList both = engine.Query({&a, &b}).Materialize();
//
// Pulls in the Engine/PreparedSet/Query API (api/engine.h), the concurrent
// batch layer (api/batch_runner.h), the algorithm registry (api/registry.h)
// and, for callers that drive algorithms directly, the raw algorithm
// interface and the Hybrid facade (core/intersector.h).

#ifndef FSI_FSI_H_
#define FSI_FSI_H_

#include "api/batch_runner.h"  // BatchRunner, BatchStats, ThreadPool
#include "api/engine.h"    // Engine, PreparedSet, Query, QueryStats
#include "api/epoch.h"     // EpochManager, MutableSetCore (mutable sets)
#include "api/expr.h"      // Expr boolean algebra, ExprCache memoization
#include "api/planner.h"   // PlannerAlgorithm, QueryPlan, PlannerCalibration
#include "api/registry.h"  // AlgorithmRegistry, AlgorithmDescriptor
#include "core/intersector.h"  // raw API + HybridIntersection
#include "serve/sharded_engine.h"  // ShardedEngine scatter-gather serving tier
#include "simd/cpu_features.h"  // SIMD dispatch introspection (ActiveLevel)
#include "storage/snapshot.h"  // snapshot container (SaveSnapshot/LoadSnapshot)

#endif  // FSI_FSI_H_
