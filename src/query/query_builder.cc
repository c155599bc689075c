#include "query/query_builder.h"

#include <utility>

namespace jarvis::query {

using stream::OpKind;
using stream::Schema;
using stream::ValueType;

QueryBuilder::QueryBuilder(Schema input_schema)
    : input_schema_(input_schema), current_schema_(std::move(input_schema)) {}

void QueryBuilder::Fail(Status status) {
  if (error_.ok()) error_ = std::move(status);
}

Result<size_t> QueryBuilder::ResolveField(const std::string& name) const {
  return current_schema_.IndexOf(name);
}

QueryBuilder& QueryBuilder::Window(Micros width) {
  if (!error_.ok()) return *this;
  if (width <= 0) {
    Fail(Status::InvalidArgument("window width must be positive"));
    return *this;
  }
  if (window_width_ != 0) {
    Fail(Status::InvalidArgument("only one Window per query is supported"));
    return *this;
  }
  window_width_ = width;
  LogicalOp op;
  op.kind = OpKind::kWindow;
  op.name = "window#" + std::to_string(op_counter_++);
  op.window_width = width;
  op.input_schema = current_schema_;
  op.output_schema = current_schema_;
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::Filter(std::string name,
                                   stream::FilterOp::Predicate pred) {
  if (!error_.ok()) return *this;
  LogicalOp op;
  op.kind = OpKind::kFilter;
  op.name = std::move(name);
  op.predicate = std::move(pred);
  op.input_schema = current_schema_;
  op.output_schema = current_schema_;
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::Filter(std::string name,
                                   stream::TypedPredicate pred) {
  if (!error_.ok()) return *this;
  Status valid = stream::ValidatePredicate(pred, current_schema_);
  if (!valid.ok()) {
    Fail(std::move(valid));
    return *this;
  }
  LogicalOp op;
  op.kind = OpKind::kFilter;
  op.name = std::move(name);
  // The record paths evaluate the same tree the typed form carries, so both
  // forms agree record for record.
  op.predicate = [p = pred](const stream::Record& r) {
    return stream::EvalPredicate(p, r);
  };
  op.typed_predicate = std::move(pred);
  op.input_schema = current_schema_;
  op.output_schema = current_schema_;
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::FilterI64Cmp(const std::string& field,
                                         stream::CmpOp cmp, int64_t value) {
  if (!error_.ok()) return *this;
  auto idx = ResolveField(field);
  if (!idx.ok()) {
    Fail(idx.status());
    return *this;
  }
  return Filter("filter(" + field + std::string(stream::CmpOpToString(cmp)) +
                    std::to_string(value) + ")",
                stream::PredI64(idx.value(), cmp, value));
}

QueryBuilder& QueryBuilder::FilterF64Cmp(const std::string& field,
                                         stream::CmpOp cmp, double value) {
  if (!error_.ok()) return *this;
  auto idx = ResolveField(field);
  if (!idx.ok()) {
    Fail(idx.status());
    return *this;
  }
  return Filter("filter(" + field + std::string(stream::CmpOpToString(cmp)) +
                    std::to_string(value) + ")",
                stream::PredF64(idx.value(), cmp, value));
}

QueryBuilder& QueryBuilder::FilterI64Eq(const std::string& field,
                                        int64_t value) {
  return FilterI64Cmp(field, stream::CmpOp::kEq, value);
}

QueryBuilder& QueryBuilder::Map(std::string name, Schema output_schema,
                                stream::MapOp::MapFn fn) {
  if (!error_.ok()) return *this;
  LogicalOp op;
  op.kind = OpKind::kMap;
  op.name = std::move(name);
  op.map_fn = std::move(fn);
  op.input_schema = current_schema_;
  op.output_schema = output_schema;
  current_schema_ = std::move(output_schema);
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::Join(
    std::shared_ptr<const stream::StaticTable> table,
    const std::string& stream_key_field) {
  if (!error_.ok()) return *this;
  auto idx = ResolveField(stream_key_field);
  if (!idx.ok()) {
    Fail(idx.status());
    return *this;
  }
  if (current_schema_.field(idx.value()).type != ValueType::kInt64) {
    Fail(Status::InvalidArgument("join key must be an int64 field: " +
                                 stream_key_field));
    return *this;
  }
  LogicalOp op;
  op.kind = OpKind::kJoin;
  op.name = "join(" + stream_key_field + "->" +
            table->value_field().name + ")";
  op.join_key_index = idx.value();
  op.input_schema = current_schema_;
  op.output_schema = current_schema_.Append(table->value_field());
  op.table = std::move(table);
  current_schema_ = op.output_schema;
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::Project(const std::vector<std::string>& fields) {
  if (!error_.ok()) return *this;
  std::vector<size_t> indices;
  indices.reserve(fields.size());
  for (const std::string& f : fields) {
    auto idx = ResolveField(f);
    if (!idx.ok()) {
      Fail(idx.status());
      return *this;
    }
    indices.push_back(idx.value());
  }
  LogicalOp op;
  op.kind = OpKind::kProject;
  op.name = "project#" + std::to_string(op_counter_++);
  op.project_indices = indices;
  op.input_schema = current_schema_;
  op.output_schema = current_schema_.Select(indices);
  current_schema_ = op.output_schema;
  ops_.push_back(std::move(op));
  return *this;
}

QueryBuilder& QueryBuilder::GroupApply(const std::vector<std::string>& keys) {
  if (!error_.ok()) return *this;
  if (has_pending_group_) {
    Fail(Status::InvalidArgument("GroupApply already pending"));
    return *this;
  }
  pending_group_keys_.clear();
  pending_group_key_names_.clear();
  for (const std::string& k : keys) {
    auto idx = ResolveField(k);
    if (!idx.ok()) {
      Fail(idx.status());
      return *this;
    }
    pending_group_keys_.push_back(idx.value());
    pending_group_key_names_.push_back(k);
  }
  has_pending_group_ = true;
  return *this;
}

QueryBuilder& QueryBuilder::Aggregate(const std::vector<AggDecl>& aggs,
                                      bool incremental) {
  if (!error_.ok()) return *this;
  if (!has_pending_group_) {
    Fail(Status::FailedPrecondition("Aggregate without GroupApply"));
    return *this;
  }
  if (window_width_ == 0) {
    Fail(Status::FailedPrecondition(
        "GroupApply/Aggregate requires a Window upstream"));
    return *this;
  }
  LogicalOp op;
  op.kind = OpKind::kGroupAggregate;
  op.name = "group_agg#" + std::to_string(op_counter_++);
  op.group_key_indices = pending_group_keys_;
  op.incremental = incremental;
  op.window_width = window_width_;
  for (const AggDecl& a : aggs) {
    stream::AggSpec spec;
    spec.kind = a.kind;
    spec.out_name = a.out_name;
    if (a.kind != stream::AggKind::kCount) {
      auto idx = ResolveField(a.field);
      if (!idx.ok()) {
        Fail(idx.status());
        return *this;
      }
      spec.field = idx.value();
    }
    op.agg_specs.push_back(std::move(spec));
  }
  op.input_schema = current_schema_;
  op.output_schema = stream::GroupAggregateOp::MakeOutputSchema(
      current_schema_, op.group_key_indices, op.agg_specs);
  current_schema_ = op.output_schema;
  has_pending_group_ = false;
  ops_.push_back(std::move(op));
  return *this;
}

Result<LogicalPlan> QueryBuilder::Build() {
  if (!error_.ok()) return error_;
  if (ops_.empty()) {
    return Status::InvalidArgument("empty query");
  }
  if (has_pending_group_) {
    return Status::InvalidArgument("GroupApply not closed by Aggregate");
  }
  LogicalPlan plan;
  plan.input_schema = input_schema_;
  plan.ops = ops_;
  plan.window_width = window_width_;
  return plan;
}

}  // namespace jarvis::query
