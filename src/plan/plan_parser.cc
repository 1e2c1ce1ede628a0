#include "plan/plan_parser.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <memory>
#include <vector>

#include "util/strings.h"

namespace wmp::plan {

namespace {

// One parsed line: indentation depth plus the node's fields.
struct ParsedLine {
  int depth = 0;
  PlanNode* node = nullptr;
};

Result<ParsedLine> ParseLine(std::string_view line, size_t line_no,
                             util::Arena* arena) {
  ParsedLine out;
  size_t indent = 0;
  while (indent < line.size() && line[indent] == ' ') ++indent;
  if (indent % 2 != 0) {
    return Status::InvalidArgument(
        StrFormat("line %zu: odd indentation %zu", line_no, indent));
  }
  out.depth = static_cast<int>(indent / 2);

  std::string_view rest = line.substr(indent);
  // Operator name runs until '(' or whitespace.
  size_t name_end = 0;
  while (name_end < rest.size() && rest[name_end] != '(' &&
         rest[name_end] != ' ') {
    ++name_end;
  }
  WMP_ASSIGN_OR_RETURN(OperatorType op,
                       OperatorTypeFromName(rest.substr(0, name_end)));
  out.node = arena->New<PlanNode>(arena, op);
  rest.remove_prefix(name_end);

  if (!rest.empty() && rest.front() == '(') {
    const size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: unterminated table name", line_no));
    }
    out.node->table = arena->CopyString(rest.substr(1, close - 1));
    rest.remove_prefix(close + 1);
  }

  // Remaining fields are space-separated key=value pairs, plus the bare
  // "hash" flag and a quoted detail.
  while (!rest.empty()) {
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.empty()) break;
    if (StartsWith(rest, "hash")) {
      out.node->hash_mode = true;
      rest.remove_prefix(4);
      continue;
    }
    if (StartsWith(rest, "detail=\"")) {
      rest.remove_prefix(8);
      const size_t close = rest.find('"');
      if (close == std::string_view::npos) {
        return Status::InvalidArgument(
            StrFormat("line %zu: unterminated detail", line_no));
      }
      out.node->detail = arena->CopyString(rest.substr(0, close));
      rest.remove_prefix(close + 1);
      continue;
    }
    const size_t eq = rest.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: malformed field near '%.*s'", line_no,
                    static_cast<int>(std::min<size_t>(rest.size(), 16)),
                    rest.data()));
    }
    const std::string_view key = rest.substr(0, eq);
    const int key_len = static_cast<int>(key.size());
    rest.remove_prefix(eq + 1);
    size_t val_end = rest.find(' ');
    if (val_end == std::string_view::npos) val_end = rest.size();
    const std::string_view value = Trim(rest.substr(0, val_end));
    rest.remove_prefix(val_end);
    // The whole field must be a finite number: "1abc" is not 1, and a NaN
    // or infinite cardinality poisons every plan feature and the k-means
    // fit over them.
    double v = 0.0;
    if (Status st = ParseFiniteDouble(value, &v); !st.ok()) {
      return Status::InvalidArgument(StrFormat("line %zu: %s for %.*s",
                                               line_no, st.message().c_str(),
                                               key_len, key.data()));
    }
    if (key == "in") {
      out.node->input_card = v;
    } else if (key == "out") {
      out.node->output_card = v;
    } else if (key == "tin") {
      out.node->true_input_card = v;
    } else if (key == "tout") {
      out.node->true_output_card = v;
    } else if (key == "width") {
      out.node->row_width = v;
    } else if (key == "keys") {
      // Casting a double an int cannot hold is undefined behaviour.
      if (v < 0 || v > INT_MAX || v != std::floor(v)) {
        return Status::InvalidArgument(StrFormat(
            "line %zu: keys must be a whole number in [0, %d]", line_no,
            INT_MAX));
      }
      out.node->num_keys = static_cast<int>(v);
    } else {
      return Status::InvalidArgument(StrFormat(
          "line %zu: unknown field '%.*s'", line_no, key_len, key.data()));
    }
  }
  return out;
}

}  // namespace

Result<PlanNode*> ParseExplainInto(std::string_view text,
                                   util::Arena* arena) {
  // Stack of (depth, node*) for parent attachment.
  PlanNode* root = nullptr;
  std::vector<std::pair<int, PlanNode*>> stack;
  size_t line_no = 0;
  std::string_view raw;
  for (LineCursor lines(text); lines.Next(&raw);) {
    ++line_no;
    if (Trim(raw).empty()) continue;
    WMP_ASSIGN_OR_RETURN(ParsedLine parsed, ParseLine(raw, line_no, arena));
    if (root == nullptr) {
      if (parsed.depth != 0) {
        return Status::InvalidArgument("first plan line must not be indented");
      }
      root = parsed.node;
      stack.push_back({0, root});
      continue;
    }
    // Pop to the parent level.
    while (!stack.empty() && stack.back().first >= parsed.depth) {
      stack.pop_back();
    }
    if (stack.empty() || stack.back().first != parsed.depth - 1) {
      return Status::InvalidArgument(
          StrFormat("line %zu: indentation skips a level", line_no));
    }
    PlanNode* parent = stack.back().second;
    parent->children.push_back(parsed.node);
    stack.push_back({parsed.depth, parsed.node});
  }
  if (root == nullptr) {
    return Status::InvalidArgument("empty plan text");
  }
  return root;
}

Result<PlanTree> ParseExplain(std::string_view text) {
  auto arena = std::make_unique<util::Arena>(kPlanArenaChunk);
  WMP_ASSIGN_OR_RETURN(PlanNode * root, ParseExplainInto(text, arena.get()));
  return PlanTree(std::move(arena), root);
}

}  // namespace wmp::plan
