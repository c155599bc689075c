#ifndef JARVIS_QUERY_OPTIMIZER_H_
#define JARVIS_QUERY_OPTIMIZER_H_

#include "common/status.h"
#include "query/logical_plan.h"

namespace jarvis::query {

/// Placement rules R-1..R-3 from Section IV-B, expressed as configuration so
/// they can be extended. Defaults mirror the paper. R-4 (one physical
/// operator per logical operator on a data source) is structural: a source
/// runs its operator prefix as one serial pipeline.
struct PlacementRules {
  /// R-1: non-incrementally-updatable aggregations (e.g. exact quantiles)
  /// may not run on data sources.
  bool allow_non_incremental = false;
  /// R-2: operators downstream of a stateful operator (whose state must be
  /// aggregated across data sources) may not run on data sources.
  bool allow_after_stateful = false;
  /// R-3: stateful stream-stream joins may not run on data sources.
  bool allow_stream_stream_join = false;
};

/// The optimizer output: a (possibly rewritten) chain plus the data-level
/// partitioning metadata. Operators [0, source_placeable_ops) are replicated
/// on data sources, each fronted by a control proxy; the stream processor
/// runs the full chain and merges drained records/partial state.
struct OptimizedPlan {
  LogicalPlan plan;
  size_t source_placeable_ops = 0;
};

/// Logical optimization + placement. Rewrites applied, in order:
///  1. fuse adjacent filters into one conjunction (typed forms stay typed),
///  2. projection pushdown: sink each Project below Window (schema-agnostic)
///     and below typed Filters whose referenced fields survive the
///     projection (predicate field indices are remapped), so dead columns
///     are dropped as early as possible — before later stages move the
///     records and before the drain wire. Pushdown is blocked across
///     Map / Join / GroupAggregate (they consume their full input schema)
///     and across opaque std::function filters (unremappable),
///  3. re-fuse filters made adjacent by 2., and fuse adjacent Projects into
///     one composed index list.
/// Then the placement rules mark the source-placeable prefix.
Result<OptimizedPlan> Optimize(LogicalPlan plan,
                               const PlacementRules& rules = PlacementRules());

}  // namespace jarvis::query

#endif  // JARVIS_QUERY_OPTIMIZER_H_
