#include <gtest/gtest.h>

#include "query/compile.h"
#include "query/optimizer.h"
#include "query/query_builder.h"
#include "stream/ops.h"
#include "workloads/queries.h"

namespace jarvis::query {
namespace {

using stream::Schema;
using stream::ValueType;

Schema S() {
  return Schema::Of({{"a", ValueType::kInt64}, {"b", ValueType::kDouble}});
}

TEST(OptimizerTest, FusesAdjacentFilters) {
  QueryBuilder q(S());
  q.Filter("f1", [](const stream::Record& r) { return r.i64(0) > 0; })
      .Filter("f2", [](const stream::Record& r) { return r.i64(0) < 10; });
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(optimized->plan.ops.size(), 1u);
  // The fused predicate is a conjunction.
  stream::Record in;
  in.fields = {stream::Value(int64_t{5}), stream::Value(0.0)};
  EXPECT_TRUE(optimized->plan.ops[0].predicate(in));
  in.fields[0] = stream::Value(int64_t{50});
  EXPECT_FALSE(optimized->plan.ops[0].predicate(in));
  in.fields[0] = stream::Value(int64_t{-5});
  EXPECT_FALSE(optimized->plan.ops[0].predicate(in));
}

TEST(OptimizerTest, S2SFullyPlaceable) {
  auto plan = workloads::MakeS2SProbeQuery();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  // Window, Filter, G+R: all replicable; G+R itself is placeable because it
  // is incrementally updatable (merged at the SP).
  EXPECT_EQ(optimized->source_placeable_ops, 3u);
}

TEST(OptimizerTest, RuleR2StopsAfterStateful) {
  // G+R followed by a filter on aggregates: the trailing filter must stay on
  // the stream processor.
  QueryBuilder q(S());
  q.Window(Seconds(10))
      .GroupApply({"a"})
      .Aggregate({Count("cnt")});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  LogicalPlan with_tail = std::move(plan).value();
  LogicalOp tail;
  tail.kind = stream::OpKind::kFilter;
  tail.name = "post";
  tail.predicate = [](const stream::Record&) { return true; };
  tail.input_schema = with_tail.output_schema();
  tail.output_schema = with_tail.output_schema();
  with_tail.ops.push_back(std::move(tail));

  auto optimized = Optimize(with_tail);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->source_placeable_ops, 2u);  // window + G+R

  PlacementRules relaxed;
  relaxed.allow_after_stateful = true;
  auto opt2 = Optimize(with_tail, relaxed);
  ASSERT_TRUE(opt2.ok());
  EXPECT_EQ(opt2->source_placeable_ops, 3u);
}

TEST(OptimizerTest, RuleR1StopsNonIncrementalAggregate) {
  QueryBuilder q(S());
  q.Window(Seconds(10))
      .GroupApply({"a"})
      .Aggregate({Count("cnt")}, /*incremental=*/false);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(*plan);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->source_placeable_ops, 1u);  // window only

  PlacementRules relaxed;
  relaxed.allow_non_incremental = true;
  auto opt2 = Optimize(*plan, relaxed);
  ASSERT_TRUE(opt2.ok());
  EXPECT_EQ(opt2->source_placeable_ops, 2u);
}

TEST(OptimizerTest, RuleR3StopsStreamStreamJoin) {
  QueryBuilder q(S());
  q.Window(Seconds(10));
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  LogicalPlan lp = std::move(plan).value();
  LogicalOp join;
  join.kind = stream::OpKind::kJoin;
  join.name = "ssjoin";
  join.is_stream_stream = true;
  join.input_schema = lp.output_schema();
  join.output_schema = lp.output_schema();
  lp.ops.push_back(std::move(join));

  auto optimized = Optimize(lp);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(optimized->source_placeable_ops, 1u);

  PlacementRules relaxed;
  relaxed.allow_stream_stream_join = true;
  auto opt2 = Optimize(lp, relaxed);
  ASSERT_TRUE(opt2.ok());
  EXPECT_EQ(opt2->source_placeable_ops, 2u);
}

TEST(OptimizerTest, EmptyPlanRejected) {
  LogicalPlan empty;
  EXPECT_FALSE(Optimize(empty).ok());
}

// ---------------------------------------------------------------------------
// Projection pushdown
// ---------------------------------------------------------------------------

Schema S3() {
  return Schema::Of({{"a", ValueType::kInt64},
                     {"b", ValueType::kDouble},
                     {"c", ValueType::kString}});
}

/// Golden plan-shape check: op kinds in order.
std::vector<stream::OpKind> Kinds(const LogicalPlan& plan) {
  std::vector<stream::OpKind> kinds;
  for (const LogicalOp& op : plan.ops) kinds.push_back(op.kind);
  return kinds;
}

using stream::OpKind;

TEST(OptimizerTest, ProjectionSinksBelowTypedFilterAndWindow) {
  // Window -> Filter(a!=0) -> Project(b, a): the filter only needs a kept
  // field, so the projection sinks to the front of the plan and the filter
  // is remapped onto the projected schema.
  QueryBuilder q(S3());
  q.Window(Seconds(1)).FilterI64Cmp("a", stream::CmpOp::kNe, 0);
  q.Project({"b", "a"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());

  const LogicalPlan& p = optimized->plan;
  EXPECT_EQ(Kinds(p), (std::vector<OpKind>{OpKind::kProject, OpKind::kWindow,
                                           OpKind::kFilter}));
  // Golden schemas: project does A->{b,a}; window and filter run on {b,a}.
  const Schema projected =
      Schema::Of({{"b", ValueType::kDouble}, {"a", ValueType::kInt64}});
  EXPECT_EQ(p.ops[0].input_schema, S3());
  EXPECT_EQ(p.ops[0].output_schema, projected);
  EXPECT_EQ(p.ops[1].input_schema, projected);
  EXPECT_EQ(p.ops[1].output_schema, projected);
  EXPECT_EQ(p.ops[2].input_schema, projected);
  EXPECT_EQ(p.ops[2].output_schema, projected);
  EXPECT_EQ(p.output_schema(), projected);
  // The remapped predicate reads `a` at its projected index (1), in both
  // the typed and the opaque form.
  ASSERT_TRUE(p.ops[2].typed_predicate.has_value());
  EXPECT_EQ(p.ops[2].typed_predicate->field, 1u);
  stream::Record rec;
  rec.fields = {stream::Value(2.5), stream::Value(int64_t{7})};
  EXPECT_TRUE(p.ops[2].predicate(rec));
  rec.fields[1] = stream::Value(int64_t{0});
  EXPECT_FALSE(p.ops[2].predicate(rec));
}

TEST(OptimizerTest, PushdownBlockedWhenFilterNeedsDroppedField) {
  // Filter(c == "x") but the projection drops c: order must not change.
  QueryBuilder q(S3());
  q.Window(Seconds(1));
  q.Filter("fc", stream::PredStr(2, stream::CmpOp::kEq, "x"));
  q.Project({"a", "b"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan),
            (std::vector<OpKind>{OpKind::kWindow, OpKind::kFilter,
                                 OpKind::kProject}));
}

TEST(OptimizerTest, PushdownBlockedAcrossOpaqueFilter) {
  // A std::function predicate cannot be remapped; the projection stays put.
  QueryBuilder q(S3());
  q.Filter("opaque", [](const stream::Record& r) { return r.i64(0) > 0; });
  q.Project({"a"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan),
            (std::vector<OpKind>{OpKind::kFilter, OpKind::kProject}));
}

TEST(OptimizerTest, PushdownBlockedAcrossJoinAndGroupAggregate) {
  // T2T: ... Join -> Join -> Project -> G+R. The joins consume their full
  // input schema, so the projection must stay where it is.
  auto src = workloads::MakeIpToTorTable(0, 100, 10, "srcToR");
  auto dst = workloads::MakeIpToTorTable(0, 100, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src, dst);
  ASSERT_TRUE(plan.ok());
  const std::vector<OpKind> before = Kinds(plan.value());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan), before);
  EXPECT_EQ(optimized->source_placeable_ops, 6u);

  // And a Project directly after G+R does not cross it either.
  QueryBuilder q(S3());
  q.Window(Seconds(10)).GroupApply({"a"}).Aggregate({Count("cnt")});
  q.Project({"cnt"});
  auto plan2 = q.Build();
  ASSERT_TRUE(plan2.ok());
  auto opt2 = Optimize(std::move(plan2).value());
  ASSERT_TRUE(opt2.ok());
  EXPECT_EQ(Kinds(opt2->plan),
            (std::vector<OpKind>{OpKind::kWindow, OpKind::kGroupAggregate,
                                 OpKind::kProject}));
}

TEST(OptimizerTest, PushdownPreservesQuerySemantics) {
  // The rewritten plan must compute exactly what the naive chain computes.
  QueryBuilder q(S3());
  q.Window(Seconds(1)).FilterI64Cmp("a", stream::CmpOp::kGt, 10);
  q.Project({"b", "a"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  LogicalPlan naive = plan.value();

  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(optimized->plan.ops[0].kind, OpKind::kProject);

  // Evaluate both chains by hand on a small record set.
  auto run = [](const LogicalPlan& p, stream::RecordBatch input) {
    stream::RecordBatch cur = std::move(input);
    for (const LogicalOp& op : p.ops) {
      stream::RecordBatch next;
      for (stream::Record& r : cur) {
        switch (op.kind) {
          case OpKind::kWindow:
            r.window_start = r.event_time - r.event_time % op.window_width;
            next.push_back(std::move(r));
            break;
          case OpKind::kFilter:
            if (op.predicate(r)) next.push_back(std::move(r));
            break;
          case OpKind::kProject: {
            stream::Record proj;
            proj.event_time = r.event_time;
            proj.window_start = r.window_start;
            for (size_t i : op.project_indices) {
              proj.fields.push_back(r.fields[i]);
            }
            next.push_back(std::move(proj));
            break;
          }
          default:
            ADD_FAILURE() << "unexpected op";
        }
      }
      cur = std::move(next);
    }
    return cur;
  };

  stream::RecordBatch input;
  for (int64_t i = 0; i < 40; ++i) {
    stream::Record r;
    r.event_time = i * 100000;
    r.fields = {stream::Value(i), stream::Value(i * 0.5),
                stream::Value(std::string("s") + std::to_string(i))};
    input.push_back(std::move(r));
  }
  EXPECT_EQ(run(optimized->plan, input), run(naive, input));
}

TEST(OptimizerTest, AdjacentProjectsFuse) {
  QueryBuilder q(S3());
  q.Project({"c", "b", "a"});
  q.Project({"a", "c"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(optimized->plan.ops.size(), 1u);
  EXPECT_EQ(optimized->plan.ops[0].kind, OpKind::kProject);
  // Composed indices: {c,b,a} (= {2,1,0}) then {a,c} over it (= {2,0})
  // collapses to {a,c} over the original schema, i.e. {0,2}.
  EXPECT_EQ(optimized->plan.ops[0].project_indices,
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(optimized->plan.output_schema(),
            Schema::Of({{"a", ValueType::kInt64}, {"c", ValueType::kString}}));
}

TEST(OptimizerTest, PushdownCompilesToProjectFirstPipeline) {
  // Compile-level golden check: the source pipeline instantiates with the
  // projection first, so dead columns are gone before any other operator.
  QueryBuilder q(S3());
  q.Window(Seconds(1)).FilterI64Cmp("a", stream::CmpOp::kNe, 0);
  q.Project({"a", "b"});
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto compiled = Compile(std::move(plan).value());
  ASSERT_TRUE(compiled.ok());
  auto pipeline = compiled->MakeSourcePipeline();
  ASSERT_TRUE(pipeline.ok());
  ASSERT_EQ((*pipeline)->size(), 3u);
  EXPECT_EQ((*pipeline)->op(0).kind(), OpKind::kProject);
  EXPECT_EQ((*pipeline)->op(1).kind(), OpKind::kWindow);
  EXPECT_EQ((*pipeline)->op(2).kind(), OpKind::kFilter);
  // The filter keeps its typed form after the rewrite.
  const auto* filter =
      dynamic_cast<const stream::FilterOp*>(&(*pipeline)->op(2));
  ASSERT_NE(filter, nullptr);
  EXPECT_NE(filter->typed_predicate(), nullptr);
}

// ---------------------------------------------------------------------------
// Predicate pushdown below stream-table joins
// ---------------------------------------------------------------------------

std::shared_ptr<stream::StaticTable> SmallTorTable() {
  // Sparse on purpose: keys 0..19 map, everything else misses (so the
  // semantics test exercises join drops on both plan shapes).
  auto table = std::make_shared<stream::StaticTable>(
      "a", stream::Schema::Field{"tor", ValueType::kInt64});
  for (int64_t k = 0; k < 20; ++k) table->Insert(k, stream::Value(k / 4));
  return table;
}

TEST(OptimizerTest, TypedFilterHopsStreamTableJoin) {
  // Join(a->tor) -> Filter(b < 5.0): the filter reads only a pre-join field,
  // so it hops the join and runs on the narrower pre-join stream.
  QueryBuilder q(S3());
  q.Join(SmallTorTable(), "a");
  q.FilterF64Cmp("b", stream::CmpOp::kLt, 5.0);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());

  const LogicalPlan& p = optimized->plan;
  EXPECT_EQ(Kinds(p), (std::vector<OpKind>{OpKind::kFilter, OpKind::kJoin}));
  // Golden schemas: the filter runs on the un-joined schema; the join is
  // untouched. Field indices need no remap (the join appends at the end).
  EXPECT_EQ(p.ops[0].input_schema, S3());
  EXPECT_EQ(p.ops[0].output_schema, S3());
  ASSERT_TRUE(p.ops[0].typed_predicate.has_value());
  EXPECT_EQ(p.ops[0].typed_predicate->field, 1u);
  EXPECT_EQ(p.ops[1].input_schema, S3());
  EXPECT_EQ(p.ops[1].output_schema,
            S3().Append({"tor", ValueType::kInt64}));
  // Both ops stay source-placeable (stream-table joins are replicable).
  EXPECT_EQ(optimized->source_placeable_ops, 2u);
}

TEST(OptimizerTest, PredicatePushdownBlockedOnJoinedColumn) {
  // Filter(tor == 3) reads the joined-in column: order must not change.
  QueryBuilder q(S3());
  q.Join(SmallTorTable(), "a");
  q.FilterI64Cmp("tor", stream::CmpOp::kEq, 3);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan),
            (std::vector<OpKind>{OpKind::kJoin, OpKind::kFilter}));
}

TEST(OptimizerTest, PredicatePushdownBlockedForOpaqueFilter) {
  // A std::function predicate's field set is unknowable; it stays put.
  QueryBuilder q(S3());
  q.Join(SmallTorTable(), "a");
  q.Filter("opaque", [](const stream::Record& r) { return r.i64(0) > 0; });
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan),
            (std::vector<OpKind>{OpKind::kJoin, OpKind::kFilter}));
}

TEST(OptimizerTest, PredicatePushdownBlockedForStreamStreamJoin) {
  QueryBuilder q(S3());
  q.FilterI64Cmp("a", stream::CmpOp::kGt, 0);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  LogicalPlan lp = std::move(plan).value();
  // Splice a stream-stream join marker in front of the filter.
  LogicalOp join;
  join.kind = OpKind::kJoin;
  join.name = "ssjoin";
  join.is_stream_stream = true;
  join.input_schema = S3();
  join.output_schema = S3();
  lp.ops.insert(lp.ops.begin(), std::move(join));
  auto optimized = Optimize(lp);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Kinds(optimized->plan),
            (std::vector<OpKind>{OpKind::kJoin, OpKind::kFilter}));
}

TEST(OptimizerTest, PredicatePushdownHopsJoinChainAndRefuses) {
  // Window -> Filter(a>2) -> Join -> Join -> Filter(b<5): the trailing
  // typed filter hops both joins and fuses with the leading filter, so the
  // compiled prefix is one conjunction filter before any join probe.
  auto t1 = SmallTorTable();
  auto t2 = std::make_shared<stream::StaticTable>(
      "a", stream::Schema::Field{"tor2", ValueType::kInt64});
  for (int64_t k = 0; k < 20; ++k) t2->Insert(k, stream::Value(k % 4));
  QueryBuilder q(S3());
  q.Window(Seconds(1)).FilterI64Cmp("a", stream::CmpOp::kGt, 2);
  q.Join(t1, "a");
  q.Join(t2, "a");
  q.FilterF64Cmp("b", stream::CmpOp::kLt, 5.0);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());

  const LogicalPlan& p = optimized->plan;
  EXPECT_EQ(Kinds(p), (std::vector<OpKind>{OpKind::kWindow, OpKind::kFilter,
                                           OpKind::kJoin, OpKind::kJoin}));
  // The fused filter is a typed conjunction (both operands were typed).
  ASSERT_TRUE(p.ops[1].typed_predicate.has_value());
  EXPECT_EQ(p.ops[1].typed_predicate->node,
            stream::TypedPredicate::Node::kAnd);
}

TEST(OptimizerTest, PredicatePushdownPreservesJoinSemantics) {
  // The rewritten plan must emit exactly what the naive chain emits,
  // including join-miss drops and untouched kPartial rows.
  QueryBuilder q(S3());
  q.Join(SmallTorTable(), "a");
  q.FilterF64Cmp("b", stream::CmpOp::kLt, 8.0);
  auto plan = q.Build();
  ASSERT_TRUE(plan.ok());
  LogicalPlan naive = plan.value();

  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(optimized->plan.ops[0].kind, OpKind::kFilter);

  auto run = [](const LogicalPlan& p, stream::RecordBatch input) {
    stream::RecordBatch cur = std::move(input);
    for (const LogicalOp& op : p.ops) {
      stream::RecordBatch next;
      for (stream::Record& r : cur) {
        if (r.kind == stream::RecordKind::kPartial) {
          next.push_back(std::move(r));  // both ops pass partials through
          continue;
        }
        switch (op.kind) {
          case OpKind::kFilter:
            if (op.predicate(r)) next.push_back(std::move(r));
            break;
          case OpKind::kJoin: {
            const stream::Value* v =
                op.table->Find(r.i64(op.join_key_index));
            if (v == nullptr) break;  // miss: dropped
            r.fields.push_back(*v);
            next.push_back(std::move(r));
            break;
          }
          default:
            ADD_FAILURE() << "unexpected op";
        }
      }
      cur = std::move(next);
    }
    return cur;
  };

  stream::RecordBatch input;
  for (int64_t i = 0; i < 40; ++i) {
    stream::Record r;
    r.event_time = i * 1000;
    r.fields = {stream::Value(i), stream::Value(i * 0.5),
                stream::Value(std::string("s") + std::to_string(i))};
    input.push_back(std::move(r));
  }
  stream::Record partial;
  partial.kind = stream::RecordKind::kPartial;
  partial.event_time = 123;
  partial.fields = {stream::Value(int64_t{99})};
  input.push_back(std::move(partial));

  EXPECT_EQ(run(optimized->plan, input), run(naive, input));
}

TEST(OptimizerTest, T2TFullyPlaceable) {
  auto src = workloads::MakeIpToTorTable(0, 100, 10, "srcToR");
  auto dst = workloads::MakeIpToTorTable(0, 100, 10, "dstToR");
  auto plan = workloads::MakeT2TProbeQuery(src, dst);
  ASSERT_TRUE(plan.ok());
  auto optimized = Optimize(std::move(plan).value());
  ASSERT_TRUE(optimized.ok());
  // Stream-table joins are replicable (immutable build side): all 6 ops.
  EXPECT_EQ(optimized->source_placeable_ops, 6u);
}

}  // namespace
}  // namespace jarvis::query
