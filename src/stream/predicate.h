#ifndef JARVIS_STREAM_PREDICATE_H_
#define JARVIS_STREAM_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/record.h"

namespace jarvis::stream {

/// Comparison operators of the typed predicate mini-language.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CmpOpToString(CmpOp op);

/// A typed filter predicate: either a `{field, cmp_op, constant}` leaf or an
/// and/or composition. Unlike FilterOp's opaque `std::function` form, the
/// structure is known at plan time, so the filter can validate it against
/// the schema once, and the optimizer can fuse adjacent typed filters
/// losslessly.
///
/// Semantics: a leaf is true iff the field exists, has the constant's exact type, and the
/// comparison holds; records that diverge from the schema at the referenced
/// field simply fail the leaf (no error, no variant access). kAnd of zero
/// children is true, kOr of zero children is false.
struct TypedPredicate {
  enum class Node : uint8_t { kLeaf, kAnd, kOr };

  Node node = Node::kLeaf;

  // Leaf.
  size_t field = 0;
  CmpOp cmp = CmpOp::kEq;
  Value constant = int64_t{0};

  // kAnd / kOr.
  std::vector<TypedPredicate> children;
};

/// Leaf constructors (the Value's type selects the typed comparison).
TypedPredicate PredI64(size_t field, CmpOp cmp, int64_t constant);
TypedPredicate PredF64(size_t field, CmpOp cmp, double constant);
TypedPredicate PredStr(size_t field, CmpOp cmp, std::string constant);
TypedPredicate PredAnd(std::vector<TypedPredicate> children);
TypedPredicate PredOr(std::vector<TypedPredicate> children);

/// Plan-time validation: every leaf's field index must exist in `schema`
/// and its type must equal the constant's type. Query builders call this
/// when a typed filter is appended, so running pipelines never hit a
/// mismatching leaf (the evaluators still degrade to `false` if they do).
Status ValidatePredicate(const TypedPredicate& pred, const Schema& schema);

/// Evaluates the predicate on one record (FilterOp's process paths).
bool EvalPredicate(const TypedPredicate& pred, const Record& rec);

/// Debug rendering, e.g. "(#0==7&&#2<30)".
std::string PredicateToString(const TypedPredicate& pred);

}  // namespace jarvis::stream

#endif  // JARVIS_STREAM_PREDICATE_H_
