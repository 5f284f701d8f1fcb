#include "core/planner.h"

#include <algorithm>
#include <functional>
#include <set>

#include "core/eligibility.h"
#include "core/predicate_extract.h"
#include "xquery/evaluator.h"

namespace xqdb {

namespace {

void CollectSourcesRec(const Expr& e,
                       std::set<std::pair<std::string, std::string>>* out) {
  if (e.kind == ExprKind::kXmlColumn) {
    out->insert({e.table_name, e.column_name});
  }
  for (const auto& c : e.children) {
    if (c != nullptr) CollectSourcesRec(*c, out);
  }
  if (e.kind == ExprKind::kPath) {
    for (const PathStep& step : e.steps) {
      if (step.expr != nullptr) CollectSourcesRec(*step.expr, out);
      for (const auto& p : step.predicates) CollectSourcesRec(*p, out);
    }
  }
  if (e.kind == ExprKind::kFlwor) {
    for (const auto& clause : e.clauses) CollectSourcesRec(*clause.expr, out);
    if (e.where != nullptr) CollectSourcesRec(*e.where, out);
    for (const auto& spec : e.order_by) CollectSourcesRec(*spec.key, out);
  }
  if (e.kind == ExprKind::kDirectElement) {
    for (const auto& part : e.ctor_content) {
      if (part.expr != nullptr) CollectSourcesRec(*part.expr, out);
    }
    for (const auto& attr : e.ctor_attrs) {
      for (const auto& part : attr.value_parts) {
        if (part.expr != nullptr) CollectSourcesRec(*part.expr, out);
      }
    }
  }
}

/// Splits a WHERE tree into top-level AND conjuncts.
void Conjuncts(const SqlExpr& e, std::vector<const SqlExpr*>* out) {
  if (e.kind == SqlExprKind::kAnd) {
    Conjuncts(*e.children[0], out);
    Conjuncts(*e.children[1], out);
  } else {
    out->push_back(&e);
  }
}

/// Converts one aggregate-argument axis step to a linear-pattern step for
/// the covering-index check (same conversion the eligibility extractor
/// applies to predicate paths). Returns false = not index-only material.
bool AppendCoveredStep(const PathStep& step, bool* pending_skip,
                       std::vector<NormStep>* steps) {
  if (step.test.kind == NodeTestSpec::Kind::kAnyNode &&
      step.axis == PathAxis::kDescendantOrSelf) {
    *pending_skip = true;
    return true;
  }
  if (step.test.kind != NodeTestSpec::Kind::kName) return false;
  switch (step.axis) {
    case PathAxis::kChild:
      steps->push_back(NormStep{
          *pending_skip, ElementTest(step.test.ns_any, step.test.ns_uri,
                                     step.test.local_any, step.test.local)});
      break;
    case PathAxis::kDescendant:
      steps->push_back(NormStep{
          true, ElementTest(step.test.ns_any, step.test.ns_uri,
                            step.test.local_any, step.test.local)});
      break;
    case PathAxis::kAttribute:
      steps->push_back(NormStep{
          *pending_skip, AttributeTest(step.test.ns_any, step.test.ns_uri,
                                       step.test.local_any, step.test.local)});
      break;
    default:
      return false;
  }
  *pending_skip = false;
  return true;
}

/// A query shape a covering index can answer without touching documents:
/// one aggregate over one predicate-free simple path rooted at
/// db2-fn:xmlcolumn. The value exactness argument needs every gathered
/// value to be the untyped-to-double cast the index key IS — which holds
/// for stored documents (ParseXml annotates everything untyped) and is
/// re-gated at execution on cast_skip_count() == 0.
struct IndexOnlyCandidate {
  std::string table;
  std::string column;
  Pattern pattern;
  AccessPath::IndexOnlyAgg agg = AccessPath::IndexOnlyAgg::kNone;
};

std::optional<IndexOnlyCandidate> DetectIndexOnlyAggregate(const Expr& body) {
  if (body.kind != ExprKind::kFunctionCall || body.children.size() != 1 ||
      body.children[0] == nullptr) {
    return std::nullopt;
  }
  AccessPath::IndexOnlyAgg agg;
  if (body.fn_name == "fn:count") {
    agg = AccessPath::IndexOnlyAgg::kCount;
  } else if (body.fn_name == "fn:sum") {
    agg = AccessPath::IndexOnlyAgg::kSum;
  } else if (body.fn_name == "fn:avg") {
    agg = AccessPath::IndexOnlyAgg::kAvg;
  } else if (body.fn_name == "fn:min") {
    agg = AccessPath::IndexOnlyAgg::kMin;
  } else if (body.fn_name == "fn:max") {
    agg = AccessPath::IndexOnlyAgg::kMax;
  } else {
    return std::nullopt;
  }
  const Expr& arg = *body.children[0];
  if (arg.kind != ExprKind::kPath || arg.absolute || arg.steps.empty() ||
      arg.steps[0].is_axis_step || !arg.steps[0].predicates.empty()) {
    return std::nullopt;
  }
  const Expr* src = arg.steps[0].expr.get();
  if (src == nullptr || src->kind != ExprKind::kXmlColumn) return std::nullopt;
  std::vector<NormStep> steps;
  bool pending_skip = false;
  for (size_t i = 1; i < arg.steps.size(); ++i) {
    const PathStep& step = arg.steps[i];
    if (!step.is_axis_step || !step.predicates.empty()) return std::nullopt;
    if (!AppendCoveredStep(step, &pending_skip, &steps)) return std::nullopt;
  }
  if (pending_skip || steps.empty()) return std::nullopt;  // trailing '//'
  IndexOnlyCandidate c;
  c.table = src->table_name;
  c.column = src->column_name;
  c.pattern = MakePattern({std::move(steps)});
  c.agg = agg;
  return c;
}

/// If `e` is a column reference to an XML column of base ref `ref`,
/// returns the column name.
std::optional<std::string> XmlColumnOfRef(const SqlExpr& e,
                                          const TableRef& ref,
                                          const Table& table) {
  if (e.kind != SqlExprKind::kColumnRef) return std::nullopt;
  if (!e.qualifier.empty() && e.qualifier != ref.alias) return std::nullopt;
  int col = table.ColumnIndex(e.column);
  if (col < 0) return std::nullopt;
  if (table.columns()[static_cast<size_t>(col)].type != SqlType::kXml) {
    return std::nullopt;
  }
  return e.column;
}

/// Adds to `items` the FROM item (per `item_of`, parallel to `schema`)
/// each column reference in `e` resolves to, PASSING arguments included.
/// False when a reference is unknown or ambiguous: its evaluation raises
/// on every row.
bool ItemsRead(const SqlExpr& e, const std::vector<ColumnSlot>& schema,
               const std::vector<size_t>& item_of, std::set<size_t>* items) {
  if (e.kind == SqlExprKind::kColumnRef) {
    const int slot = ResolveColumn(schema, e.qualifier, e.column);
    if (slot < 0) return false;
    items->insert(item_of[static_cast<size_t>(slot)]);
    return true;
  }
  if (e.xquery != nullptr) {
    for (const PassingArg& arg : e.xquery->passing) {
      if (arg.value == nullptr ||
          !ItemsRead(*arg.value, schema, item_of, items)) {
        return false;
      }
    }
  }
  for (const auto& c : e.children) {
    if (c != nullptr && !ItemsRead(*c, schema, item_of, items)) return false;
  }
  return true;
}

/// `e` as written in `text`, the query it was parsed from; the debug
/// form when the span is missing.
std::string SourceText(const Expr& e, std::string_view text) {
  if (!e.span.IsValid() || e.span.end > text.size()) return ExprToString(e);
  return std::string(text.substr(e.span.begin, e.span.end - e.span.begin));
}

/// True when `e` evaluates the same whatever its focus: `$var`, a path
/// rooted at `$var` (its later steps have their own focus), a literal, or a
/// cast or function call over such operands.
bool IgnoresFocus(const Expr& e, const std::string& var) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kVarRef:
      return e.var == var;
    case ExprKind::kPath:
      return !e.absolute && e.path_source == nullptr && !e.steps.empty() &&
             !e.steps[0].is_axis_step && e.steps[0].expr != nullptr &&
             IgnoresFocus(*e.steps[0].expr, var);
    case ExprKind::kCastAs:
    case ExprKind::kFunctionCall:
      if (e.children.empty()) return false;
      for (const auto& c : e.children) {
        if (c == nullptr || !IgnoresFocus(*c, var)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// The context nodes of `path`'s final predicate: the same path with that
/// predicate dropped. `path` is `$var` followed by predicate-free axis
/// steps and one predicated axis step (MatchXmlExistsJoin checked).
std::shared_ptr<const Expr> PredicateContexts(const Expr& path) {
  auto out = std::make_shared<Expr>(ExprKind::kPath);
  PathStep root;
  root.is_axis_step = false;
  root.expr = std::make_unique<Expr>(ExprKind::kVarRef);
  root.expr->var = path.steps[0].expr->var;
  out->steps.push_back(std::move(root));
  for (size_t i = 1; i < path.steps.size(); ++i) {
    PathStep step;
    step.axis = path.steps[i].axis;
    step.test = path.steps[i].test;
    out->steps.push_back(std::move(step));
  }
  return out;
}

/// The XMLEXISTS join shape of Queries 13 and 16:
///   XMLEXISTS('$a/step/.../step[K_a = K_b]' PASSING x AS "a", y AS "b")
/// with predicate-free axis steps before the one predicated final step.
/// K_b reads only $b and ignores the focus, so it is one key set per row
/// of y's item; K_a reads no $b and no position, so per context node it
/// is one key set per row of x's item. Fills `spec`'s keys, oriented so
/// `build` belongs to `build_item`; the caller checks the items.
bool MatchXmlExistsJoin(const SqlExpr& conjunct,
                        const std::vector<ColumnSlot>& schema,
                        const std::vector<size_t>& item_of,
                        HashJoinSpec* spec) {
  const EmbeddedXQuery& q = *conjunct.xquery;
  if (q.passing.size() != 2 || q.parsed.body == nullptr ||
      q.passing[0].var_name == q.passing[1].var_name) {
    return false;
  }
  size_t arg_item[2];
  for (size_t a = 0; a < 2; ++a) {
    std::set<size_t> items;
    if (q.passing[a].value == nullptr ||
        !ItemsRead(*q.passing[a].value, schema, item_of, &items) ||
        items.size() != 1) {
      return false;
    }
    arg_item[a] = *items.begin();
  }
  if (arg_item[0] == arg_item[1]) return false;

  const Expr& body = *q.parsed.body;
  if (body.kind != ExprKind::kPath || body.absolute ||
      body.path_source != nullptr || body.steps.size() < 2 ||
      body.steps[0].is_axis_step || body.steps[0].expr == nullptr ||
      body.steps[0].expr->kind != ExprKind::kVarRef ||
      !body.steps[0].predicates.empty()) {
    return false;
  }
  for (size_t i = 1; i < body.steps.size(); ++i) {
    const PathStep& step = body.steps[i];
    const bool last = i + 1 == body.steps.size();
    if (!step.is_axis_step || step.predicates.size() != (last ? 1u : 0u)) {
      return false;
    }
  }
  const Expr& cmp = *body.steps.back().predicates[0];
  if ((cmp.kind != ExprKind::kGeneralCompare &&
       cmp.kind != ExprKind::kValueCompare) ||
      cmp.cmp_op != CompareOp::kEq || cmp.children.size() != 2) {
    return false;
  }

  const std::string& root_var = body.steps[0].expr->var;
  size_t root = 2;
  for (size_t a = 0; a < 2; ++a) {
    if (q.passing[a].var_name == root_var) root = a;
  }
  if (root == 2) return false;
  const PassingArg& root_arg = q.passing[root];
  const PassingArg& other_arg = q.passing[1 - root];
  const std::string& other_var = other_arg.var_name;

  for (size_t side = 0; side < 2; ++side) {
    const Expr& context_key = *cmp.children[side];
    const Expr& other_key = *cmp.children[1 - side];
    if (!IgnoresFocus(other_key, other_var) ||
        ReadsVariable(other_key,
                      [&](const std::string& v) { return v != other_var; }) ||
        ReadsVariable(context_key,
                      [&](const std::string& v) { return v == other_var; })) {
      continue;
    }
    bool positional = false;
    WalkExpr(context_key, [&](const Expr& x) {
      if (x.kind == ExprKind::kFunctionCall &&
          (x.fn_name == "fn:position" || x.fn_name == "fn:last")) {
        positional = true;
      }
    });
    if (positional) continue;

    HashJoinKey root_key{nullptr, &root_arg, PredicateContexts(body),
                         &context_key};
    HashJoinKey other{nullptr, &other_arg, nullptr, &other_key};
    const bool root_builds = arg_item[root] > arg_item[1 - root];
    spec->build_item = std::max(arg_item[0], arg_item[1]);
    spec->build = root_builds ? root_key : other;
    spec->probe = root_builds ? other : root_key;
    spec->source = &q;
    spec->value_comparison = cmp.kind == ExprKind::kValueCompare;
    spec->description = "HASH JOIN ON " + SourceText(cmp, q.text);
    return true;
  }
  return false;
}

/// The SQL join shape of Query 15: `x = y` where x reads only one FROM
/// item and y only earlier ones (or the other way round).
bool MatchSqlCompareJoin(const SqlExpr& conjunct,
                         const std::vector<ColumnSlot>& schema,
                         const std::vector<size_t>& item_of,
                         HashJoinSpec* spec) {
  if (conjunct.kind != SqlExprKind::kCompare ||
      conjunct.cmp_op != CompareOp::kEq || conjunct.children.size() != 2) {
    return false;
  }
  std::set<size_t> items[2];
  for (size_t side = 0; side < 2; ++side) {
    if (conjunct.children[side] == nullptr ||
        !ItemsRead(*conjunct.children[side], schema, item_of,
                   &items[side]) ||
        items[side].empty()) {
      return false;
    }
  }
  for (size_t side = 0; side < 2; ++side) {
    const std::set<size_t>& build = items[side];
    const std::set<size_t>& probe = items[1 - side];
    if (build.size() == 1 && *probe.rbegin() < *build.begin()) {
      spec->build_item = *build.begin();
      spec->build.sql = conjunct.children[side].get();
      spec->probe.sql = conjunct.children[1 - side].get();
      spec->description = "HASH JOIN ON " + SqlExprToString(conjunct);
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> CollectXmlColumnSources(
    const Expr& e) {
  std::set<std::pair<std::string, std::string>> set;
  CollectSourcesRec(e, &set);
  return {set.begin(), set.end()};
}

void Planner::FoldStaticConjuncts(
    const SelectStmt& stmt, const std::vector<const SqlExpr*>& conjuncts,
    SelectPlan* plan) const {
  bool all_base_tables = true;
  for (const TableRef& ref : stmt.from) {
    if (ref.kind != TableRef::Kind::kBaseTable) all_base_tables = false;
  }
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const SqlExpr* conjunct = conjuncts[ci];
    if (conjunct->kind != SqlExprKind::kXmlExists ||
        conjunct->xquery == nullptr ||
        conjunct->xquery->parsed.body == nullptr) {
      continue;
    }
    // Bind every PASSING variable to its XML column; a PASSING argument we
    // cannot resolve leaves the variable's type unknown, which the
    // inference handles (unknown types just prove nothing), but a
    // non-column argument (a computed value) is left unbound the same way.
    std::vector<ColumnBinding> bindings;
    for (const PassingArg& arg : conjunct->xquery->passing) {
      if (arg.value == nullptr ||
          arg.value->kind != SqlExprKind::kColumnRef) {
        continue;
      }
      for (const TableRef& ref : stmt.from) {
        if (ref.kind != TableRef::Kind::kBaseTable) continue;
        if (!arg.value->qualifier.empty() &&
            arg.value->qualifier != ref.alias) {
          continue;
        }
        auto table = catalog_->GetTable(ref.table_name);
        if (!table.ok()) continue;
        int col = table.value()->ColumnIndex(arg.value->column);
        if (col < 0 || table.value()->columns()[static_cast<size_t>(col)]
                               .type != SqlType::kXml) {
          continue;
        }
        bindings.push_back(
            ColumnBinding{arg.var_name, ref.table_name, arg.value->column});
        break;
      }
    }
    StaticQueryFacts facts = InferStaticTypes(
        *conjunct->xquery->parsed.body, catalog_, bindings);
    const StaticType& t = facts.body_type;
    // Folding an expression that can raise would trade the error for rows
    // (or rows for an error) — never fold those.
    if (t.can_raise) continue;
    StaticFold fold;
    fold.conjunct = conjunct;
    fold.first_conjunct = ci == 0;
    if (t.IsEmpty()) {
      // XMLEXISTS is true iff the body is non-empty: a statically empty
      // body makes the conjunct constant false.
      fold.value = false;
      fold.witnesses = std::move(facts.witnesses);
      fold.description = "XMLEXISTS body is statically empty-sequence()";
      if (!fold.witnesses.empty()) {
        const StaticEmptyWitness& w = fold.witnesses.front();
        fold.description += ": no stored path in " + w.table + "." +
                            w.column + " matches " + w.path_text;
      }
    } else if (t.NonEmpty()) {
      // A provably non-empty body (a boolean result is the Tip 3 trap:
      // one item either way) makes XMLEXISTS constant true. The proof is
      // usually pure type algebra, but summary-derived emptiness facts can
      // feed it (a condition over a dead path selecting the non-empty
      // branch), so any witnesses collected during inference ride along
      // and are re-verified at execution exactly like the false-fold ones.
      fold.value = true;
      fold.witnesses = std::move(facts.witnesses);
      fold.description = "XMLEXISTS body is statically non-empty (" +
                         t.CardinalityName() + ") — the predicate never "
                         "filters";
    } else {
      continue;
    }
    if (!fold.value && fold.first_conjunct && all_base_tables &&
        !plan->static_empty) {
      // AND evaluates left-to-right: a false FIRST conjunct means no later
      // conjunct (and no raising expression) ever runs, and base-table
      // scans cannot raise either, so the zero-row result is observably
      // identical to the unfolded execution.
      plan->static_empty = true;
      plan->static_reason = fold.description;
    }
    plan->folds.push_back(std::move(fold));
  }
}

void Planner::PlanHashJoin(const SelectStmt& stmt,
                           const std::vector<const SqlExpr*>& conjuncts,
                           SelectPlan* plan) const {
  // SQL AND short-circuits left to right: only a first-conjunct join
  // proves that a pair it rejects never evaluates anything else.
  if (conjuncts.empty()) return;
  // The row schema the WHERE clause is evaluated against, and the FROM
  // item of each column.
  std::vector<ColumnSlot> schema;
  std::vector<size_t> item_of;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    if (ref.kind == TableRef::Kind::kXmlTable) {
      for (const XmlTableColumn& col : ref.columns) {
        schema.push_back(ColumnSlot{ref.alias, col.name});
        item_of.push_back(i);
      }
      continue;
    }
    auto table = catalog_->GetTable(ref.table_name);
    if (!table.ok()) return;
    for (const ColumnDef& col : table.value()->columns()) {
      schema.push_back(ColumnSlot{ref.alias, col.name});
      item_of.push_back(i);
    }
  }
  HashJoinSpec spec;
  spec.conjunct = conjuncts[0];
  const bool matched =
      conjuncts[0]->kind == SqlExprKind::kXmlExists
          ? MatchXmlExistsJoin(*conjuncts[0], schema, item_of, &spec)
          : MatchSqlCompareJoin(*conjuncts[0], schema, item_of, &spec);
  if (!matched) return;
  const TableRef& build = stmt.from[spec.build_item];
  // An index-nested-loop probe on the same item still wins (Tips 5/6).
  if (build.kind != TableRef::Kind::kBaseTable ||
      plan->access[spec.build_item].kind ==
          AccessPath::Kind::kIndexJoinProbe) {
    return;
  }
  spec.description += " (build: " + build.alias + ")";
  plan->hash_join = std::move(spec);
}

Result<SelectPlan> Planner::PlanSelect(const SelectStmt& stmt) const {
  SelectPlan plan;
  plan.access.resize(stmt.from.size());

  std::vector<const SqlExpr*> where_conjuncts;
  if (stmt.where != nullptr) Conjuncts(*stmt.where, &where_conjuncts);

  if (static_enabled_) FoldStaticConjuncts(stmt, where_conjuncts, &plan);

  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const TableRef& ref = stmt.from[i];
    AccessPath& access = plan.access[i];
    if (ref.kind != TableRef::Kind::kBaseTable) {
      access.summary = "XMLTABLE (lateral row producer)";
      continue;
    }
    auto table_result = catalog_->GetTable(ref.table_name);
    if (!table_result.ok()) return table_result.status();
    const Table* table = table_result.value();

    // Gather filtering XQuery contexts touching this table's XML columns.
    ExtractionResult merged;
    std::vector<const XmlIndex*> candidate_indexes;
    std::string used_column;

    // Maps a variable name in the embedded query to the FROM position of
    // the base ref whose column the PASSING clause binds it to.
    auto passing_ref_index = [&](const EmbeddedXQuery& q,
                                 const std::string& var) -> int {
      for (const PassingArg& arg : q.passing) {
        if (arg.var_name != var) continue;
        if (arg.value->kind != SqlExprKind::kColumnRef) return -1;
        for (size_t j = 0; j < stmt.from.size(); ++j) {
          if (stmt.from[j].kind == TableRef::Kind::kBaseTable &&
              (arg.value->qualifier.empty() ||
               arg.value->qualifier == stmt.from[j].alias)) {
            auto tr = catalog_->GetTable(stmt.from[j].table_name);
            if (tr.ok() &&
                tr.value()->ColumnIndex(arg.value->column) >= 0) {
              return static_cast<int>(j);
            }
          }
        }
        return -1;
      }
      return -1;
    };

    // The root variable of the outer side of a join candidate.
    std::function<const std::string*(const Expr&)> root_var =
        [&](const Expr& expr) -> const std::string* {
      if (expr.kind == ExprKind::kVarRef) return &expr.var;
      if (expr.kind == ExprKind::kCastAs && !expr.children.empty()) {
        return root_var(*expr.children[0]);
      }
      if (expr.kind == ExprKind::kPath && !expr.steps.empty() &&
          !expr.steps[0].is_axis_step && expr.steps[0].expr != nullptr) {
        return root_var(*expr.steps[0].expr);
      }
      return nullptr;
    };

    auto analyze_embedded = [&](const EmbeddedXQuery& q, bool filtering,
                                const char* context_desc) {
      for (const PassingArg& arg : q.passing) {
        auto col = XmlColumnOfRef(*arg.value, ref, *table);
        if (!col.has_value()) continue;
        if (!filtering) {
          merged.notes.push_back(
              DiagTag(DiagCode::kXQL002_PredicateInSelect) +
              std::string(context_desc) +
              " does not eliminate rows — its predicates on " + ref.alias +
              "." + *col + " are not index eligible");
          continue;
        }
        ExtractionResult r = ExtractPredicates(
            *q.parsed.body, ref.table_name, *col, {arg.var_name});
        for (auto& p : r.predicates) {
          merged.predicates.push_back(std::move(p));
        }
        for (auto& jc : r.joins) {
          // A join probe needs the outer side to be computable before this
          // ref joins: its root variable must be passed from an *earlier*
          // FROM item.
          const std::string* var = jc.outer_expr != nullptr
                                       ? root_var(*jc.outer_expr)
                                       : nullptr;
          int outer_ref = var != nullptr ? passing_ref_index(q, *var) : -1;
          if (outer_ref < 0 || outer_ref >= static_cast<int>(i)) {
            merged.notes.push_back(
                DiagTag(DiagCode::kXQL006_JoinOrderUnavailable) +
                "join candidate " + jc.description +
                " skipped: the outer side is not available before this "
                "table in the join order");
            continue;
          }
          jc.source = &q;
          merged.joins.push_back(std::move(jc));
        }
        for (auto& n : r.notes) merged.notes.push_back(std::move(n));
        if (used_column.empty() &&
            (!merged.predicates.empty() || !merged.joins.empty())) {
          used_column = *col;
        }
      }
    };

    for (const SqlExpr* conjunct : where_conjuncts) {
      if (conjunct->kind == SqlExprKind::kXmlExists) {
        analyze_embedded(*conjunct->xquery, /*filtering=*/true,
                         "XMLEXISTS in WHERE");
      }
    }
    for (const TableRef& other : stmt.from) {
      if (other.kind == TableRef::Kind::kXmlTable &&
          other.row_query != nullptr) {
        analyze_embedded(*other.row_query, /*filtering=*/true,
                         "XMLTABLE row producer");
        for (const XmlTableColumn& col : other.columns) {
          if (!col.for_ordinality && col.path_text.find('[') !=
                                         std::string::npos) {
            merged.notes.push_back(
                DiagTag(DiagCode::kXQL004_XmlTableColumnPred) +
                "XMLTABLE column '" + col.name + "' PATH '" + col.path_text +
                "': an empty column result becomes NULL, the row survives — "
                "column predicates are not index eligible (Tip 4, Query 12)");
          }
        }
      }
    }
    for (const SelectItem& item : stmt.items) {
      if (!item.star && item.expr != nullptr &&
          item.expr->kind == SqlExprKind::kXmlQuery) {
        analyze_embedded(*item.expr->xquery, /*filtering=*/false,
                         "XMLQUERY in the SELECT list (Tip 2, Query 5)");
      }
    }

    // Candidate indexes: all XML indexes on the column we found predicates
    // for (or any XML column if none).
    if (used_column.empty()) {
      for (const ColumnDef& col : table->columns()) {
        if (col.type == SqlType::kXml) {
          used_column = col.name;
          break;
        }
      }
    }
    if (!used_column.empty()) {
      candidate_indexes = table->indexes().XmlIndexesOn(used_column);
    }
    const PathSummary* summary =
        used_column.empty() ? nullptr : table->path_summary(used_column);
    AccessPath chosen = ChooseAccessPath(candidate_indexes, merged, summary,
                                         ref.table_name, used_column);
    chosen.notes.insert(chosen.notes.begin(),
                        std::make_move_iterator(merged.notes.begin()),
                        std::make_move_iterator(merged.notes.end()));
    // ChooseAccessPath already copied extraction.notes; remove duplicates.
    std::sort(chosen.notes.begin(), chosen.notes.end());
    chosen.notes.erase(
        std::unique(chosen.notes.begin(), chosen.notes.end()),
        chosen.notes.end());
    access = std::move(chosen);
  }
  PlanHashJoin(stmt, where_conjuncts, &plan);
  return plan;
}

Result<XQueryPlan> Planner::PlanXQuery(const Expr& body,
                                       std::string_view text) const {
  XQueryPlan plan;

  // FLWOR hash joins are chosen by the evaluator as it meets each FLWOR
  // (DESIGN.md §14); the plan only describes them.
  WalkExpr(body, [&](const Expr& e) {
    if (!FindFlworHashJoin(e).has_value()) return;
    plan.hash_joins.push_back("HASH JOIN ON " + SourceText(*e.where, text) +
                              " (build: $" + e.clauses.back().var + ")");
  });

  // Static type/cardinality inference (DESIGN.md §13): a body proven
  // empty-sequence() — and proven unable to raise — executes as a
  // constant-empty result with docs_scanned = 0. The proof's emptiness
  // witnesses are re-verified against the live path summary at execution;
  // the normal access path below stays in the plan as the demotion target.
  if (static_enabled_) {
    StaticQueryFacts facts = InferStaticTypes(body, catalog_, {});
    if (facts.body_type.IsEmpty() && !facts.body_type.can_raise) {
      plan.static_empty = true;
      plan.static_witnesses = std::move(facts.witnesses);
      plan.static_reason = "body is statically empty-sequence()";
      if (!plan.static_witnesses.empty()) {
        const StaticEmptyWitness& w = plan.static_witnesses.front();
        plan.static_reason += ": no stored path in " + w.table + "." +
                              w.column + " matches " + w.path_text;
      }
    }
  }

  // Covering index-only aggregates: answer fn:count/sum/avg/min/max over a
  // predicate-free indexed path straight from B+Tree entries. Requires a
  // DOUBLE index whose pattern language *equals* the query path's — the
  // pre-filter direction alone would allow extra entries the query never
  // produces. The executor re-verifies the data-dependent half of the
  // claim (zero tolerant cast skips) and demotes to a collection scan.
  if (auto cand = DetectIndexOnlyAggregate(body)) {
    auto table_result = catalog_->GetTable(cand->table);
    if (table_result.ok()) {
      for (const XmlIndex* idx :
           table_result.value()->indexes().XmlIndexesOn(cand->column)) {
        if (idx->type() != IndexValueType::kDouble) continue;
        if (!IndexCoversExactly(*idx, cand->pattern)) continue;
        plan.access.kind = AccessPath::Kind::kIndexOnly;
        plan.access.table = cand->table;
        plan.access.column = cand->column;
        plan.access.index = idx;
        plan.access.index_only_agg = cand->agg;
        plan.access.index_only_path_text = PatternToString(cand->pattern);
        plan.access.summary =
            "covering aggregate: pattern language equals the query path "
            "(both containment directions); valid while the index has no "
            "tolerant cast skips";
        return plan;
      }
    }
  }

  auto sources = CollectXmlColumnSources(body);
  for (const auto& [table_name, column] : sources) {
    auto table_result = catalog_->GetTable(table_name);
    if (!table_result.ok()) continue;  // Execution will surface the error.
    const Table* table = table_result.value();
    ExtractionResult extraction =
        ExtractPredicates(body, table_name, column, {});
    std::vector<const XmlIndex*> indexes =
        table->indexes().XmlIndexesOn(column);
    AccessPath access = ChooseAccessPath(
        indexes, extraction, table->path_summary(column), table_name, column);
    if (access.kind != AccessPath::Kind::kFullScan) {
      plan.access = std::move(access);
      return plan;
    }
    // Keep the most informative no-index story.
    if (plan.access.summary.empty() || !access.notes.empty()) {
      plan.access = std::move(access);
    }
  }
  return plan;
}

}  // namespace xqdb
