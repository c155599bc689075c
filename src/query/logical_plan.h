#ifndef JARVIS_QUERY_LOGICAL_PLAN_H_
#define JARVIS_QUERY_LOGICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/group_aggregate.h"
#include "stream/join.h"
#include "stream/ops.h"
#include "stream/predicate.h"

namespace jarvis::query {

/// Aggregation declaration in builder terms (field names, not indices).
struct AggDecl {
  stream::AggKind kind;
  std::string field;     // ignored for kCount
  std::string out_name;
};

inline AggDecl Count(std::string out_name) {
  return {stream::AggKind::kCount, "", std::move(out_name)};
}
inline AggDecl Sum(std::string field, std::string out_name) {
  return {stream::AggKind::kSum, std::move(field), std::move(out_name)};
}
inline AggDecl Avg(std::string field, std::string out_name) {
  return {stream::AggKind::kAvg, std::move(field), std::move(out_name)};
}
inline AggDecl Min(std::string field, std::string out_name) {
  return {stream::AggKind::kMin, std::move(field), std::move(out_name)};
}
inline AggDecl Max(std::string field, std::string out_name) {
  return {stream::AggKind::kMax, std::move(field), std::move(out_name)};
}

/// One vertex of the logical DAG. Field references are resolved to indices
/// at Build() time, so compilation never fails on name lookups.
struct LogicalOp {
  stream::OpKind kind;
  std::string name;

  // Resolved schemas around this operator.
  stream::Schema input_schema;
  stream::Schema output_schema;

  // Window.
  Micros window_width = 0;

  // Filter. `predicate` is always populated (it is what the record paths
  // evaluate); `typed_predicate` is additionally set when the filter was
  // built from the typed mini-language, which lets the optimizer fuse and
  // remap it.
  stream::FilterOp::Predicate predicate;
  std::optional<stream::TypedPredicate> typed_predicate;

  // Map.
  stream::MapOp::MapFn map_fn;

  // Join (stream-table). `is_stream_stream` marks stateful two-stream joins,
  // which rule R-3 keeps off data sources; this library models them as
  // non-replicable markers (the monitoring queries in the paper use only
  // stream-table joins).
  std::shared_ptr<const stream::StaticTable> table;
  size_t join_key_index = 0;
  bool is_stream_stream = false;

  // Project.
  std::vector<size_t> project_indices;

  // GroupAggregate (the fused G+R operator).
  std::vector<size_t> group_key_indices;
  std::vector<stream::AggSpec> agg_specs;
  bool incremental = true;  // false models exact quantiles etc. (rule R-1)
};

/// A validated straight-line logical plan (Section IV-B: after the placement
/// rules, queries deployed on data sources are operator chains).
struct LogicalPlan {
  stream::Schema input_schema;
  std::vector<LogicalOp> ops;
  Micros window_width = 0;

  const stream::Schema& output_schema() const {
    return ops.back().output_schema;
  }
};

}  // namespace jarvis::query

#endif  // JARVIS_QUERY_LOGICAL_PLAN_H_
