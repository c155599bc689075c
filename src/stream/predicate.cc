#include "stream/predicate.h"

namespace jarvis::stream {

std::string_view CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "==";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

TypedPredicate PredI64(size_t field, CmpOp cmp, int64_t constant) {
  TypedPredicate p;
  p.field = field;
  p.cmp = cmp;
  p.constant = constant;
  return p;
}

TypedPredicate PredF64(size_t field, CmpOp cmp, double constant) {
  TypedPredicate p;
  p.field = field;
  p.cmp = cmp;
  p.constant = constant;
  return p;
}

TypedPredicate PredStr(size_t field, CmpOp cmp, std::string constant) {
  TypedPredicate p;
  p.field = field;
  p.cmp = cmp;
  p.constant = std::move(constant);
  return p;
}

TypedPredicate PredAnd(std::vector<TypedPredicate> children) {
  TypedPredicate p;
  p.node = TypedPredicate::Node::kAnd;
  p.children = std::move(children);
  return p;
}

TypedPredicate PredOr(std::vector<TypedPredicate> children) {
  TypedPredicate p;
  p.node = TypedPredicate::Node::kOr;
  p.children = std::move(children);
  return p;
}

Status ValidatePredicate(const TypedPredicate& pred, const Schema& schema) {
  if (pred.node != TypedPredicate::Node::kLeaf) {
    for (const TypedPredicate& child : pred.children) {
      JARVIS_RETURN_IF_ERROR(ValidatePredicate(child, schema));
    }
    return Status::OK();
  }
  if (pred.field >= schema.num_fields()) {
    return Status::InvalidArgument("predicate field index " +
                                   std::to_string(pred.field) +
                                   " out of range for " + schema.ToString());
  }
  if (schema.field(pred.field).type != TypeOf(pred.constant)) {
    return Status::InvalidArgument(
        "predicate constant type does not match field '" +
        schema.field(pred.field).name + "' in " + schema.ToString());
  }
  return Status::OK();
}

namespace {

template <typename T>
bool Compare(const T& a, CmpOp op, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

bool EvalPredicate(const TypedPredicate& pred, const Record& rec) {
  switch (pred.node) {
    case TypedPredicate::Node::kAnd:
      for (const TypedPredicate& child : pred.children) {
        if (!EvalPredicate(child, rec)) return false;
      }
      return true;
    case TypedPredicate::Node::kOr:
      for (const TypedPredicate& child : pred.children) {
        if (EvalPredicate(child, rec)) return true;
      }
      return false;
    case TypedPredicate::Node::kLeaf:
      break;
  }
  if (pred.field >= rec.fields.size()) return false;
  const Value& v = rec.fields[pred.field];
  if (TypeOf(v) != TypeOf(pred.constant)) return false;
  switch (TypeOf(v)) {
    case ValueType::kInt64:
      return Compare(*std::get_if<int64_t>(&v), pred.cmp,
                     *std::get_if<int64_t>(&pred.constant));
    case ValueType::kDouble:
      return Compare(*std::get_if<double>(&v), pred.cmp,
                     *std::get_if<double>(&pred.constant));
    case ValueType::kString:
      return Compare(*std::get_if<std::string>(&v), pred.cmp,
                     *std::get_if<std::string>(&pred.constant));
  }
  return false;
}

std::string PredicateToString(const TypedPredicate& pred) {
  if (pred.node == TypedPredicate::Node::kLeaf) {
    return "#" + std::to_string(pred.field) +
           std::string(CmpOpToString(pred.cmp)) + ValueToString(pred.constant);
  }
  const char* sep = pred.node == TypedPredicate::Node::kAnd ? "&&" : "||";
  std::string out = "(";
  for (size_t i = 0; i < pred.children.size(); ++i) {
    if (i) out += sep;
    out += PredicateToString(pred.children[i]);
  }
  out += ")";
  return out;
}

}  // namespace jarvis::stream
