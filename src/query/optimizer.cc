#include "query/optimizer.h"

namespace jarvis::query {

using stream::OpKind;

namespace {

/// Fuses runs of adjacent filters into one (predicate conjunction). Keeps
/// plans shorter so proxies sit between genuinely different operators.
void FuseAdjacentFilters(LogicalPlan* plan) {
  std::vector<LogicalOp> fused;
  for (LogicalOp& op : plan->ops) {
    if (op.kind == OpKind::kFilter && !fused.empty() &&
        fused.back().kind == OpKind::kFilter) {
      LogicalOp& prev = fused.back();
      auto a = prev.predicate;
      auto b = op.predicate;
      prev.predicate = [a, b](const stream::Record& r) {
        return a(r) && b(r);
      };
      // Typed forms fuse losslessly into one conjunction, so the fused
      // filter stays typed; one opaque operand makes the fusion opaque.
      if (prev.typed_predicate && op.typed_predicate) {
        std::vector<stream::TypedPredicate> conjuncts;
        conjuncts.reserve(2);
        conjuncts.push_back(*std::move(prev.typed_predicate));
        conjuncts.push_back(*std::move(op.typed_predicate));
        prev.typed_predicate = stream::PredAnd(std::move(conjuncts));
      } else {
        prev.typed_predicate.reset();
      }
      prev.name = prev.name + "&&" + op.name;
      prev.output_schema = op.output_schema;
      continue;
    }
    fused.push_back(std::move(op));
  }
  plan->ops = std::move(fused);
}

/// Remaps every leaf's field index through the projection: old index i
/// becomes the position of i's first occurrence in `project_indices`.
/// Returns false (leaving `pred` partially rewritten — callers remap a
/// copy) when some referenced field is dropped by the projection.
bool RemapPredicateFields(stream::TypedPredicate* pred,
                          const std::vector<size_t>& project_indices) {
  if (pred->node == stream::TypedPredicate::Node::kLeaf) {
    for (size_t j = 0; j < project_indices.size(); ++j) {
      if (project_indices[j] == pred->field) {
        pred->field = j;
        return true;
      }
    }
    return false;
  }
  for (stream::TypedPredicate& child : pred->children) {
    if (!RemapPredicateFields(&child, project_indices)) return false;
  }
  return true;
}

/// Sinks Project operators below Window and below typed Filters whose
/// predicate survives the projection. Each successful swap moves the column
/// drop one stage earlier: the later stages then move fewer bytes and
/// records drained between the swapped stages ship fewer columns. Iterates to a fixpoint so a Project bubbles through a whole
/// Window/Filter prefix.
void PushDownProjections(LogicalPlan* plan) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < plan->ops.size(); ++i) {
      LogicalOp& proj = plan->ops[i];
      if (proj.kind != OpKind::kProject) continue;
      LogicalOp& prev = plan->ops[i - 1];
      if (prev.kind == OpKind::kWindow) {
        // Window only stamps window_start; it runs identically on the
        // projected schema.
        proj.input_schema = prev.input_schema;
        prev.input_schema = proj.output_schema;
        prev.output_schema = proj.output_schema;
      } else if (prev.kind == OpKind::kFilter && prev.typed_predicate) {
        stream::TypedPredicate remapped = *prev.typed_predicate;
        if (!RemapPredicateFields(&remapped, proj.project_indices)) {
          continue;  // the predicate needs a dropped column
        }
        // Both physical forms of the filter must see projected indices: the
        // opaque predicate is regenerated from the remapped tree (typed
        // filters always derive it from the tree, so this is lossless).
        prev.typed_predicate = std::move(remapped);
        prev.predicate = [p = *prev.typed_predicate](const stream::Record& r) {
          return stream::EvalPredicate(p, r);
        };
        proj.input_schema = prev.input_schema;
        prev.input_schema = proj.output_schema;
        prev.output_schema = proj.output_schema;
      } else {
        continue;  // Map/Join/GroupAggregate/opaque filter: blocked
      }
      std::swap(plan->ops[i - 1], plan->ops[i]);
      changed = true;
    }
  }
}

/// True when every leaf of `pred` reads a field strictly below `limit`.
bool PredicateFieldsBelow(const stream::TypedPredicate& pred, size_t limit) {
  if (pred.node == stream::TypedPredicate::Node::kLeaf) {
    return pred.field < limit;
  }
  for (const stream::TypedPredicate& child : pred.children) {
    if (!PredicateFieldsBelow(child, limit)) return false;
  }
  return true;
}

/// Hops typed Filters over stream-table Joins when every referenced field
/// pre-exists the join. A stream-table join only *appends* its value column
/// (and both operators pass kPartial rows through untouched), so field
/// indices survive unchanged and filter-then-join emits exactly what
/// join-then-filter emits — while the join probes only the surviving rows.
/// Blocked for predicates that read the joined-in column, for opaque
/// std::function filters (their field set is unknowable), and for
/// stream-stream join markers (modeled as opaque). Iterates to a fixpoint
/// so one filter hops a whole join chain.
void PushDownPredicates(LogicalPlan* plan) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 1; i < plan->ops.size(); ++i) {
      LogicalOp& filt = plan->ops[i];
      if (filt.kind != OpKind::kFilter || !filt.typed_predicate) continue;
      LogicalOp& prev = plan->ops[i - 1];
      if (prev.kind != OpKind::kJoin || prev.is_stream_stream ||
          prev.table == nullptr) {
        continue;
      }
      if (!PredicateFieldsBelow(*filt.typed_predicate,
                                prev.input_schema.num_fields())) {
        continue;  // the predicate reads the joined-in column
      }
      // No remap needed: pre-join fields keep their indices, so both the
      // typed tree and the opaque form it was compiled from stay valid.
      filt.input_schema = prev.input_schema;
      filt.output_schema = prev.input_schema;
      std::swap(plan->ops[i - 1], plan->ops[i]);
      changed = true;
    }
  }
}

/// Fuses runs of adjacent Projects into one with composed indices (the
/// pushdown above can stack them).
void FuseAdjacentProjects(LogicalPlan* plan) {
  std::vector<LogicalOp> fused;
  for (LogicalOp& op : plan->ops) {
    if (op.kind == OpKind::kProject && !fused.empty() &&
        fused.back().kind == OpKind::kProject) {
      LogicalOp& prev = fused.back();
      std::vector<size_t> composed;
      composed.reserve(op.project_indices.size());
      for (size_t j : op.project_indices) {
        composed.push_back(prev.project_indices[j]);
      }
      prev.project_indices = std::move(composed);
      prev.name = prev.name + "+" + op.name;
      prev.output_schema = op.output_schema;
      continue;
    }
    fused.push_back(std::move(op));
  }
  plan->ops = std::move(fused);
}

}  // namespace

Result<OptimizedPlan> Optimize(LogicalPlan plan, const PlacementRules& rules) {
  if (plan.ops.empty()) {
    return Status::InvalidArgument("empty plan");
  }
  FuseAdjacentFilters(&plan);
  // Filters hop stream-table joins first, then projections sink through the
  // (possibly longer) Window/Filter prefix; both pushdowns can make filters
  // and projects adjacent, so fuse again afterwards.
  PushDownPredicates(&plan);
  FuseAdjacentFilters(&plan);
  PushDownProjections(&plan);
  FuseAdjacentFilters(&plan);
  FuseAdjacentProjects(&plan);

  OptimizedPlan out;
  size_t placeable = 0;
  bool seen_stateful = false;
  for (const LogicalOp& op : plan.ops) {
    if (seen_stateful && !rules.allow_after_stateful) {
      break;  // R-2
    }
    if (op.kind == OpKind::kGroupAggregate && !op.incremental &&
        !rules.allow_non_incremental) {
      break;  // R-1
    }
    if (op.kind == OpKind::kJoin && op.is_stream_stream &&
        !rules.allow_stream_stream_join) {
      break;  // R-3
    }
    ++placeable;
    if (op.kind == OpKind::kGroupAggregate ||
        (op.kind == OpKind::kJoin && op.is_stream_stream)) {
      seen_stateful = true;
    }
  }
  out.plan = std::move(plan);
  out.source_placeable_ops = placeable;
  return out;
}

}  // namespace jarvis::query
