#include "query/compile.h"

namespace jarvis::query {

using stream::OpKind;

Result<stream::OperatorPtr> MakeOperator(const LogicalOp& op,
                                         bool emit_partials) {
  switch (op.kind) {
    case OpKind::kWindow:
      return stream::OperatorPtr(std::make_unique<stream::WindowOp>(
          op.name, op.output_schema, op.window_width));
    case OpKind::kFilter:
      // The typed form (when the builder could express the predicate in the
      // mini-language) keeps its structure; the std::function form stays as
      // the fully general fallback.
      if (op.typed_predicate) {
        return stream::OperatorPtr(std::make_unique<stream::FilterOp>(
            op.name, op.output_schema, *op.typed_predicate));
      }
      return stream::OperatorPtr(std::make_unique<stream::FilterOp>(
          op.name, op.output_schema, op.predicate));
    case OpKind::kMap:
      return stream::OperatorPtr(std::make_unique<stream::MapOp>(
          op.name, op.output_schema, op.map_fn));
    case OpKind::kJoin:
      if (op.is_stream_stream) {
        return Status::Unimplemented(
            "stream-stream joins are modeled for placement only");
      }
      return stream::OperatorPtr(std::make_unique<stream::JoinOp>(
          op.name, op.input_schema, op.table, op.join_key_index));
    case OpKind::kProject:
      return stream::OperatorPtr(std::make_unique<stream::ProjectOp>(
          op.name, op.input_schema, op.project_indices));
    case OpKind::kGroupAggregate:
      return stream::OperatorPtr(std::make_unique<stream::GroupAggregateOp>(
          op.name, op.input_schema, op.group_key_indices, op.agg_specs,
          op.window_width, emit_partials));
  }
  return Status::Internal("unknown operator kind");
}

Result<std::unique_ptr<stream::Pipeline>> CompiledQuery::MakeSourcePipeline()
    const {
  auto pipeline = std::make_unique<stream::Pipeline>();
  for (size_t i = 0; i < plan_.source_placeable_ops; ++i) {
    JARVIS_ASSIGN_OR_RETURN(
        stream::OperatorPtr op,
        MakeOperator(plan_.plan.ops[i], /*emit_partials=*/true));
    pipeline->Add(std::move(op));
  }
  return pipeline;
}

Result<std::unique_ptr<stream::Pipeline>> CompiledQuery::MakeSpPipeline()
    const {
  auto pipeline = std::make_unique<stream::Pipeline>();
  for (const LogicalOp& op : plan_.plan.ops) {
    JARVIS_ASSIGN_OR_RETURN(stream::OperatorPtr physical,
                            MakeOperator(op, /*emit_partials=*/false));
    pipeline->Add(std::move(physical));
  }
  return pipeline;
}

Result<CompiledQuery> Compile(LogicalPlan plan, const PlacementRules& rules) {
  JARVIS_ASSIGN_OR_RETURN(OptimizedPlan optimized,
                          Optimize(std::move(plan), rules));
  return CompiledQuery(std::move(optimized));
}

}  // namespace jarvis::query
