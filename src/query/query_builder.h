#ifndef JARVIS_QUERY_QUERY_BUILDER_H_
#define JARVIS_QUERY_QUERY_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/logical_plan.h"

namespace jarvis::query {

/// Declarative query construction mirroring the paper's programming model
/// (Listing 1):
///
///   QueryBuilder q(pingmesh_schema);
///   q.Window(Seconds(10))
///    .FilterI64Eq("errCode", 0)
///    .GroupApply({"srcIp", "dstIp"})
///    .Aggregate({Avg("rtt", "avg_rtt"), Max("rtt", "max_rtt"),
///                Min("rtt", "min_rtt")});
///   JARVIS_ASSIGN_OR_RETURN(LogicalPlan plan, q.Build());
///
/// Field references are validated against the threaded schema as operators
/// are appended; Build() reports the first error.
class QueryBuilder {
 public:
  explicit QueryBuilder(stream::Schema input_schema);

  /// Tumbling window of the given width. Must precede stateful operators.
  QueryBuilder& Window(Micros width);

  /// Generic predicate filter (opaque std::function form; the fully general
  /// fallback for predicates the typed mini-language cannot express).
  QueryBuilder& Filter(std::string name, stream::FilterOp::Predicate pred);

  /// Typed predicate filter ({field, cmp_op, constant} composition with
  /// field indices resolved against the current schema). Validated here at
  /// build time; compiles to FilterOp's typed form.
  QueryBuilder& Filter(std::string name, stream::TypedPredicate pred);

  /// Convenience: keep records whose named field compares against `value`
  /// (typed predicates; the field must have the matching type).
  QueryBuilder& FilterI64Cmp(const std::string& field, stream::CmpOp cmp,
                             int64_t value);
  QueryBuilder& FilterF64Cmp(const std::string& field, stream::CmpOp cmp,
                             double value);

  /// Convenience: keep records whose int64 field equals `value`.
  QueryBuilder& FilterI64Eq(const std::string& field, int64_t value);

  /// 1->N transform with an explicit output schema.
  QueryBuilder& Map(std::string name, stream::Schema output_schema,
                    stream::MapOp::MapFn fn);

  /// Stream-table join on an int64 stream field; appends the table's value
  /// column.
  QueryBuilder& Join(std::shared_ptr<const stream::StaticTable> table,
                     const std::string& stream_key_field);

  /// Keep only the named fields, in order.
  QueryBuilder& Project(const std::vector<std::string>& fields);

  /// Start a G+R operator grouping on the named key fields; must be followed
  /// by Aggregate().
  QueryBuilder& GroupApply(const std::vector<std::string>& keys);

  /// Close the pending GroupApply with aggregate columns. `incremental`
  /// marks whether the aggregation is incrementally updatable (rule R-1).
  QueryBuilder& Aggregate(const std::vector<AggDecl>& aggs,
                          bool incremental = true);

  /// Finalizes and validates the plan.
  Result<LogicalPlan> Build();

 private:
  /// Records the first error and makes subsequent calls no-ops.
  void Fail(Status status);
  Result<size_t> ResolveField(const std::string& name) const;

  stream::Schema input_schema_;
  stream::Schema current_schema_;
  std::vector<LogicalOp> ops_;
  Status error_;
  Micros window_width_ = 0;
  bool has_pending_group_ = false;
  std::vector<size_t> pending_group_keys_;
  std::vector<std::string> pending_group_key_names_;
  int op_counter_ = 0;
};

}  // namespace jarvis::query

#endif  // JARVIS_QUERY_QUERY_BUILDER_H_
