#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/strings.h"

namespace wmp::plan {

namespace {

/// A base relation during join enumeration: its scan subplan plus both
/// cardinality tracks and the set of FROM aliases it covers.
///
/// Alias views point at interned AST identifiers; nodes live in the
/// caller's arena.
struct Rel {
  PlanNode* node = nullptr;
  double est_card = 0.0;
  double true_card = 0.0;
  double width = 0.0;
  std::set<std::string_view> aliases;
  /// Base-relation info for index-nested-loop decisions; null after a join.
  const catalog::TableDef* base_table = nullptr;
  std::string_view base_alias;
};

}  // namespace

Planner::Planner(const catalog::Catalog* cat, PlannerOptions options)
    : catalog_(cat), options_(options), optimizer_model_(cat), true_model_(cat) {}

Result<PlanTree> Planner::CreatePlan(const sql::Query& query) const {
  auto arena = std::make_unique<util::Arena>(kPlanArenaChunk);
  WMP_ASSIGN_OR_RETURN(PlanNode * root, CreatePlanInto(query, arena.get()));
  return PlanTree(std::move(arena), root);
}

Result<PlanNode*> Planner::CreatePlanInto(const sql::Query& query,
                                          util::Arena* arena) const {
  if (query.from.empty()) {
    return Status::InvalidArgument("query has no FROM clause");
  }

  // --- Resolve aliases to table definitions -------------------------------
  // string_view keys compare lexicographically exactly like std::string, so
  // iteration order — and every downstream FP accumulation order — is
  // unchanged by the arena conversion.
  std::map<std::string_view, const catalog::TableDef*> scope;  // alias -> table
  for (const sql::TableRef& ref : query.from) {
    WMP_ASSIGN_OR_RETURN(const catalog::TableDef* def,
                         catalog_->FindTable(ref.table));
    if (!scope.emplace(ref.effective_name(), def).second) {
      return Status::InvalidArgument("duplicate table alias: " +
                                     std::string(ref.effective_name()));
    }
  }
  // Resolves a column reference to its (alias, table); unqualified columns
  // match the unique FROM table containing them.
  auto resolve = [&](const sql::ColumnRef& col)
      -> Result<std::pair<std::string_view, const catalog::TableDef*>> {
    if (!col.table.empty()) {
      auto it = scope.find(col.table);
      if (it == scope.end()) {
        return Status::NotFound("unknown table alias: " +
                                std::string(col.table));
      }
      if (!it->second->HasColumn(col.column)) {
        return Status::NotFound("column " + std::string(col.column) +
                                " not in " + it->second->name());
      }
      return std::make_pair(it->first, it->second);
    }
    std::pair<std::string_view, const catalog::TableDef*> found{"", nullptr};
    for (const auto& [alias, def] : scope) {
      if (def->HasColumn(col.column)) {
        if (found.second != nullptr) {
          return Status::InvalidArgument("ambiguous column: " +
                                         std::string(col.column));
        }
        found = {alias, def};
      }
    }
    if (found.second == nullptr) {
      return Status::NotFound("column not found: " + std::string(col.column));
    }
    return found;
  };

  // --- Referenced columns per alias (projection width model) --------------
  std::map<std::string_view, std::set<std::string_view>> referenced;
  auto note_column = [&](const sql::ColumnRef& col) -> Status {
    WMP_ASSIGN_OR_RETURN(auto at, resolve(col));
    referenced[at.first].insert(col.column);
    return Status::OK();
  };
  for (const sql::SelectItem& item : query.select_list) {
    if (!item.is_star && !item.column.column.empty()) {
      WMP_RETURN_IF_ERROR(note_column(item.column));
    }
  }
  for (const sql::Predicate& p : query.where) {
    WMP_RETURN_IF_ERROR(note_column(p.lhs));
    if (p.kind == sql::Predicate::Kind::kJoin) {
      WMP_RETURN_IF_ERROR(note_column(p.rhs));
    }
  }
  for (const sql::ColumnRef& c : query.group_by) WMP_RETURN_IF_ERROR(note_column(c));
  for (const sql::ColumnRef& c : query.order_by) WMP_RETURN_IF_ERROR(note_column(c));
  const bool select_star = std::any_of(
      query.select_list.begin(), query.select_list.end(),
      [](const sql::SelectItem& s) { return s.is_star && s.agg == sql::AggFunc::kNone; });

  auto projected_width = [&](std::string_view alias,
                             const catalog::TableDef* def) {
    if (select_star) {
      return static_cast<double>(def->row_width()) +
             options_.tuple_overhead_bytes;
    }
    double w = options_.tuple_overhead_bytes;
    auto it = referenced.find(alias);
    if (it != referenced.end()) {
      for (std::string_view cname : it->second) {
        auto col = def->FindColumn(cname);
        if (col.ok()) w += (*col)->width();
      }
    }
    return w;
  };

  // --- Build base-relation scans ------------------------------------------
  std::vector<Rel> rels;
  for (const sql::TableRef& ref : query.from) {
    const std::string_view alias = ref.effective_name();
    const catalog::TableDef* def = scope[alias];
    const double rows = static_cast<double>(def->row_count());

    // Split local predicates into sargable ones (handled inside the scan)
    // and residual LIKEs (FILTER above it).
    std::vector<const sql::Predicate*> sargable, residual;
    for (const sql::Predicate& p : query.where) {
      if (p.kind != sql::Predicate::Kind::kComparison) continue;
      WMP_ASSIGN_OR_RETURN(auto at, resolve(p.lhs));
      if (at.first != alias) continue;
      (p.op == sql::CompareOp::kLike ? residual : sargable).push_back(&p);
    }
    WMP_ASSIGN_OR_RETURN(double est_sel,
                         optimizer_model_.ConjunctionSelectivity(sargable, *def));
    WMP_ASSIGN_OR_RETURN(double true_sel,
                         true_model_.ConjunctionSelectivity(sargable, *def));

    // Access path: an index scan pays off for selective indexed predicates.
    bool use_index = false;
    std::string_view index_column;
    if (est_sel < options_.index_selectivity_threshold) {
      for (const sql::Predicate* p : sargable) {
        if (def->HasIndexOn(p->lhs.column)) {
          use_index = true;
          index_column = p->lhs.column;
          break;
        }
      }
    }
    const double width = projected_width(alias, def);
    PlanNode* node = nullptr;
    if (use_index) {
      PlanNode* ix = arena->New<PlanNode>(arena, OperatorType::kIxScan);
      ix->table = arena->CopyString(def->name());
      ix->detail = arena->CopyString("index=" + std::string(index_column));
      ix->input_card = rows;
      ix->output_card = std::max(rows * est_sel, 1.0);
      ix->true_input_card = rows;
      ix->true_output_card = std::max(rows * true_sel, 1.0);
      ix->row_width = 12.0;  // RID + key
      PlanNode* fetch = arena->New<PlanNode>(arena, OperatorType::kFetch);
      fetch->table = ix->table;
      fetch->input_card = ix->output_card;
      fetch->output_card = ix->output_card;
      fetch->true_input_card = ix->true_output_card;
      fetch->true_output_card = ix->true_output_card;
      fetch->row_width = width;
      fetch->children.push_back(ix);
      node = fetch;
    } else {
      node = arena->New<PlanNode>(arena, OperatorType::kTbScan);
      node->table = arena->CopyString(def->name());
      node->input_card = rows;
      node->output_card = std::max(rows * est_sel, 1.0);
      node->true_input_card = rows;
      node->true_output_card = std::max(rows * true_sel, 1.0);
      node->row_width = width;
      if (!sargable.empty()) {
        node->detail =
            arena->CopyString(StrFormat("sargable=%zu", sargable.size()));
      }
    }
    if (!residual.empty()) {
      WMP_ASSIGN_OR_RETURN(double est_rsel, optimizer_model_.ConjunctionSelectivity(
                                                residual, *def));
      WMP_ASSIGN_OR_RETURN(double true_rsel,
                           true_model_.ConjunctionSelectivity(residual, *def));
      PlanNode* filter = arena->New<PlanNode>(arena, OperatorType::kFilter);
      filter->detail =
          arena->CopyString(StrFormat("residual=%zu", residual.size()));
      filter->input_card = node->output_card;
      filter->output_card = std::max(node->output_card * est_rsel, 1.0);
      filter->true_input_card = node->true_output_card;
      filter->true_output_card =
          std::max(node->true_output_card * true_rsel, 1.0);
      filter->row_width = width;
      filter->children.push_back(node);
      node = filter;
    }

    Rel rel;
    rel.est_card = node->output_card;
    rel.true_card = node->true_output_card;
    rel.width = width;
    rel.aliases.insert(alias);
    rel.base_table = def;
    rel.base_alias = alias;
    rel.node = node;
    rels.push_back(std::move(rel));
  }

  // --- Greedy join enumeration --------------------------------------------
  struct JoinEdge {
    const sql::Predicate* pred;
    std::string_view lhs_alias, rhs_alias;
    const catalog::TableDef* lhs_table;
    const catalog::TableDef* rhs_table;
  };
  std::vector<JoinEdge> edges;
  for (const sql::Predicate& p : query.where) {
    if (p.kind != sql::Predicate::Kind::kJoin) continue;
    WMP_ASSIGN_OR_RETURN(auto l, resolve(p.lhs));
    WMP_ASSIGN_OR_RETURN(auto r, resolve(p.rhs));
    edges.push_back({&p, l.first, r.first, l.second, r.second});
  }

  while (rels.size() > 1) {
    // Find the joinable pair with the smallest estimated output.
    double best_out = -1.0;
    size_t best_i = 0, best_j = 1;
    const JoinEdge* best_edge = nullptr;
    double best_sel_est = 1.0, best_sel_true = 1.0;
    for (size_t i = 0; i < rels.size(); ++i) {
      for (size_t j = i + 1; j < rels.size(); ++j) {
        for (const JoinEdge& e : edges) {
          const bool connects_ij = rels[i].aliases.count(e.lhs_alias) &&
                                   rels[j].aliases.count(e.rhs_alias);
          const bool connects_ji = rels[j].aliases.count(e.lhs_alias) &&
                                   rels[i].aliases.count(e.rhs_alias);
          if (!connects_ij && !connects_ji) continue;
          WMP_ASSIGN_OR_RETURN(
              double sel_est,
              optimizer_model_.JoinSelectivity(*e.pred, *e.lhs_table, *e.rhs_table));
          const double out = rels[i].est_card * rels[j].est_card * sel_est;
          if (best_out < 0.0 || out < best_out) {
            WMP_ASSIGN_OR_RETURN(
                double sel_true,
                true_model_.JoinSelectivity(*e.pred, *e.lhs_table, *e.rhs_table));
            best_out = out;
            best_i = i;
            best_j = j;
            best_edge = &e;
            best_sel_est = sel_est;
            best_sel_true = sel_true;
          }
        }
      }
    }
    if (best_edge == nullptr) {
      // No connecting predicate: cross join the two smallest relations.
      std::sort(rels.begin(), rels.end(), [](const Rel& a, const Rel& b) {
        return a.est_card < b.est_card;
      });
      best_i = 0;
      best_j = 1;
      best_sel_est = 1.0;
      best_sel_true = 1.0;
    }

    Rel& a = rels[best_i];
    Rel& b = rels[best_j];

    // A relation can serve as the inner of an index nested-loop join when
    // it is still a base table with an index on its join column.
    auto indexable_inner = [&](const Rel& rel) {
      if (best_edge == nullptr || rel.base_table == nullptr) return false;
      return (rel.aliases.count(best_edge->rhs_alias) &&
              rel.base_table->HasIndexOn(best_edge->pred->rhs.column)) ||
             (rel.aliases.count(best_edge->lhs_alias) &&
              rel.base_table->HasIndexOn(best_edge->pred->lhs.column));
    };

    OperatorType method;
    Rel* outer;
    Rel* inner;
    if (best_edge != nullptr && a.est_card <= options_.nlj_outer_card_max &&
        indexable_inner(b)) {
      method = OperatorType::kNlJoin;
      outer = &a;
      inner = &b;
    } else if (best_edge != nullptr &&
               b.est_card <= options_.nlj_outer_card_max &&
               indexable_inner(a)) {
      method = OperatorType::kNlJoin;
      outer = &b;
      inner = &a;
    } else {
      // Hash/merge join: probe with the larger side, build on the smaller.
      outer = a.est_card >= b.est_card ? &a : &b;
      inner = a.est_card >= b.est_card ? &b : &a;
      if (best_edge == nullptr) {
        method = OperatorType::kNlJoin;  // cross join
      } else if (inner->est_card * inner->width >
                 options_.hash_build_max_bytes) {
        method = OperatorType::kMsJoin;
      } else {
        method = OperatorType::kHsJoin;
      }
    }

    const double out_est =
        std::max(outer->est_card * inner->est_card * best_sel_est, 1.0);
    const double out_true =
        std::max(outer->true_card * inner->true_card * best_sel_true, 1.0);
    const double out_width = outer->width + inner->width;

    PlanNode* join = arena->New<PlanNode>(arena, method);
    if (best_edge == nullptr) {
      join->detail = "cross";
    } else {
      std::string detail;
      best_edge->pred->lhs.AppendTo(&detail);
      detail.push_back('=');
      best_edge->pred->rhs.AppendTo(&detail);
      join->detail = arena->CopyString(detail);
    }
    join->input_card = outer->est_card + inner->est_card;
    join->output_card = out_est;
    join->true_input_card = outer->true_card + inner->true_card;
    join->true_output_card = out_true;
    join->row_width = out_width;
    join->num_keys = 1;

    if (method == OperatorType::kMsJoin) {
      // Sort both inputs on the join key.
      auto make_sort = [&](Rel& side) {
        PlanNode* sort = arena->New<PlanNode>(arena, OperatorType::kSort);
        sort->num_keys = 1;
        sort->detail = "merge-join input";
        sort->input_card = side.est_card;
        sort->output_card = side.est_card;
        sort->true_input_card = side.true_card;
        sort->true_output_card = side.true_card;
        sort->row_width = side.width;
        sort->children.push_back(side.node);
        side.node = sort;
      };
      make_sort(*outer);
      make_sort(*inner);
    }
    // children[0] = outer/probe, children[1] = inner/build.
    join->children.push_back(outer->node);
    join->children.push_back(inner->node);

    Rel merged;
    merged.est_card = out_est;
    merged.true_card = out_true;
    merged.width = out_width;
    merged.aliases = a.aliases;
    merged.aliases.insert(b.aliases.begin(), b.aliases.end());
    merged.node = join;
    // base_table stays null: index-NLJ only applies to base relations.

    // Remove b (higher index first), then replace a.
    const size_t hi = std::max(best_i, best_j), lo = std::min(best_i, best_j);
    rels.erase(rels.begin() + static_cast<std::ptrdiff_t>(hi));
    rels[lo] = std::move(merged);
  }

  PlanNode* root = rels[0].node;

  // --- Aggregation / DISTINCT ---------------------------------------------
  std::vector<sql::ColumnRef> group_cols = query.group_by;
  const bool distinct_only = query.distinct && group_cols.empty();
  if (distinct_only) {
    for (const sql::SelectItem& item : query.select_list) {
      if (!item.is_star && item.agg == sql::AggFunc::kNone) {
        group_cols.push_back(item.column);
      }
    }
  }
  if (!group_cols.empty() || query.HasAggregation()) {
    std::vector<std::pair<const catalog::TableDef*, std::string_view>> gcols;
    double key_width = 0.0;
    for (const sql::ColumnRef& c : group_cols) {
      WMP_ASSIGN_OR_RETURN(auto at, resolve(c));
      gcols.push_back({at.second, c.column});
      auto col = at.second->FindColumn(c.column);
      if (col.ok()) key_width += (*col)->width();
    }
    int num_aggs = 0;
    for (const sql::SelectItem& item : query.select_list) {
      if (item.agg != sql::AggFunc::kNone) ++num_aggs;
    }
    double groups_est = 1.0, groups_true = 1.0;
    if (!gcols.empty()) {
      WMP_ASSIGN_OR_RETURN(groups_est,
                           optimizer_model_.GroupCount(gcols, root->output_card));
      WMP_ASSIGN_OR_RETURN(
          groups_true, true_model_.GroupCount(gcols, root->true_output_card));
    }
    const bool hash_mode = groups_est <= options_.hash_group_max;
    const double agg_width =
        key_width + 8.0 * num_aggs + options_.tuple_overhead_bytes;

    if (!hash_mode && !gcols.empty()) {
      // Sort-based aggregation needs its input ordered by the group keys.
      PlanNode* sort = arena->New<PlanNode>(arena, OperatorType::kSort);
      sort->num_keys = static_cast<int>(gcols.size());
      sort->detail = "group-by input";
      sort->input_card = root->output_card;
      sort->output_card = root->output_card;
      sort->true_input_card = root->true_output_card;
      sort->true_output_card = root->true_output_card;
      sort->row_width = root->row_width;
      sort->children.push_back(root);
      root = sort;
    }
    PlanNode* grpby = arena->New<PlanNode>(arena, OperatorType::kGroupBy);
    grpby->hash_mode = hash_mode && !gcols.empty();
    grpby->num_keys = static_cast<int>(gcols.size());
    grpby->detail = distinct_only
                        ? std::string_view("distinct")
                        : arena->CopyString(StrFormat("aggs=%d", num_aggs));
    grpby->input_card = root->output_card;
    grpby->output_card = std::max(1.0, std::min(groups_est, root->output_card));
    grpby->true_input_card = root->true_output_card;
    grpby->true_output_card =
        std::max(1.0, std::min(groups_true, root->true_output_card));
    grpby->row_width = agg_width;
    grpby->children.push_back(root);
    root = grpby;
  }

  // --- ORDER BY -------------------------------------------------------------
  if (!query.order_by.empty()) {
    PlanNode* sort = arena->New<PlanNode>(arena, OperatorType::kSort);
    sort->num_keys = static_cast<int>(query.order_by.size());
    sort->detail = "order-by";
    sort->input_card = root->output_card;
    sort->output_card = root->output_card;
    sort->true_input_card = root->true_output_card;
    sort->true_output_card = root->true_output_card;
    sort->row_width = root->row_width;
    sort->children.push_back(root);
    root = sort;
  }

  // --- RETURN ----------------------------------------------------------------
  PlanNode* ret = arena->New<PlanNode>(arena, OperatorType::kReturn);
  ret->input_card = root->output_card;
  ret->true_input_card = root->true_output_card;
  const double limit =
      query.limit >= 0 ? static_cast<double>(query.limit)
                       : std::numeric_limits<double>::max();
  ret->output_card = std::max(1.0, std::min(root->output_card, limit));
  ret->true_output_card =
      std::max(1.0, std::min(root->true_output_card, limit));
  ret->row_width = root->row_width;
  ret->children.push_back(root);

  if (!options_.annotate_true_cardinalities) {
    ret->VisitMutable([](PlanNode* n) {
      n->true_input_card = -1.0;
      n->true_output_card = -1.0;
    });
  }
  return ret;
}

}  // namespace wmp::plan
