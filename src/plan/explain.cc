#include "plan/explain.h"

#include "util/strings.h"

namespace wmp::plan {

namespace {

void ExplainNode(const PlanNode& node, const ExplainOptions& options,
                 int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(OperatorTypeName(node.op));
  if (!node.table.empty()) {
    out->push_back('(');
    out->append(node.table);
    out->push_back(')');
  }
  // %.17g round-trips IEEE doubles exactly, so ParseExplain(Explain(p))
  // reconstructs every annotation bit-for-bit.
  out->append(" in=");
  AppendDouble17g(node.input_card, out);
  out->append(" out=");
  AppendDouble17g(node.output_card, out);
  if (options.include_true_cardinalities && node.true_output_card >= 0.0) {
    out->append(" tin=");
    AppendDouble17g(node.true_input_card, out);
    out->append(" tout=");
    AppendDouble17g(node.true_output_card, out);
  }
  out->append(" width=");
  AppendDouble17g(node.row_width, out);
  if (node.num_keys > 0) {
    out->append(" keys=");
    AppendInt(node.num_keys, out);
  }
  if (node.hash_mode) out->append(" hash");
  if (!node.detail.empty()) {
    out->append(" detail=\"");
    out->append(node.detail);
    out->push_back('"');
  }
  out->push_back('\n');
  for (const auto& child : node.children) {
    ExplainNode(*child, options, depth + 1, out);
  }
}

}  // namespace

void AppendExplain(const PlanNode& root, const ExplainOptions& options,
                   std::string* out) {
  ExplainNode(root, options, 0, out);
}

std::string Explain(const PlanNode& root, const ExplainOptions& options) {
  std::string out;
  AppendExplain(root, options, &out);
  return out;
}

}  // namespace wmp::plan
