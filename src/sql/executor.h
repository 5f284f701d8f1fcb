#ifndef XQDB_SQL_EXECUTOR_H_
#define XQDB_SQL_EXECUTOR_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/static_types.h"
#include "common/result.h"
#include "observability/exec_stats.h"
#include "sql/batch_filter.h"
#include "sql/plan.h"
#include "sql/sql_ast.h"
#include "storage/catalog.h"
#include "xdm/join_key.h"
#include "xquery/parser.h"
#include "xquery/structural_join.h"

namespace xqdb {

/// A materialized query result. Rows may reference nodes in table storage
/// and in `runtime` (documents constructed during evaluation), so the
/// ResultSet keeps the runtime alive.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<SqlValue>> rows;
  std::shared_ptr<QueryRuntime> runtime;
  ExecStats stats;

  /// Tabular rendering (tests and examples).
  std::string ToString(size_t max_rows = 20) const;
};

/// Executes bound SELECT statements and standalone XQuery bodies against
/// the catalog, following the access paths chosen by the planner. Joins
/// run in FROM order: a planned hash join or index probe where there is
/// one, otherwise a nested loop; XMLTABLE items are lateral. The full
/// predicate is re-applied after index pre-filtering (indexes only need
/// Definition 1's guarantee). Every plan-time assumption a path rests on is
/// re-checked against the live data here, in ResolveAccess and at the two
/// static-emptiness witness gates.
///
/// Every row visit and every db2-fn:xmlcolumn resolution is gated on
/// `snapshot_epoch`: rows inserted after the snapshot, or deleted at or
/// before it, do not exist for this executor. The default kEpochLatest
/// sees all live rows (single-session behaviour).
class SqlExecutor {
 public:
  explicit SqlExecutor(Catalog* catalog,
                       uint64_t snapshot_epoch = kEpochLatest)
      : catalog_(catalog), snapshot_epoch_(snapshot_epoch),
        snapshot_provider_(catalog, snapshot_epoch) {}

  /// Per-statement override of the structural-join default for every
  /// embedded XQuery evaluation (ExecOptions::disable_structural).
  void set_structural_enabled(bool enabled) { structural_enabled_ = enabled; }

  /// Per-statement override of the batch-execution default
  /// (ExecOptions::disable_batch). Off forces row-at-a-time EvalPredicate
  /// for every WHERE conjunct — the batch-vs-row oracle's ground truth.
  void set_batch_enabled(bool enabled) { batch_enabled_ = enabled; }

  /// Per-statement override of static folding (ExecOptions::disable_static).
  /// Off, the executor ignores the plan's StaticFold entries and STATIC
  /// EMPTY marking and evaluates every conjunct — the static-vs-unoptimized
  /// oracle's ground truth.
  void set_static_enabled(bool enabled) { static_enabled_ = enabled; }

  Result<ResultSet> Run(const SelectStmt& stmt, const SelectPlan& plan);

  /// Evaluates a standalone XQuery under its plan: the statically-empty
  /// shortcut, the covering index-only aggregate, or the body evaluated
  /// over the pre-filtered (or whole) collection. Constructed nodes live in
  /// `runtime`; counters accumulate into `stats`.
  Result<Sequence> RunXQuery(const ParsedQuery& parsed,
                             const XQueryPlan& plan, QueryRuntime* runtime,
                             ExecStats* stats);

  /// DELETE FROM t [WHERE cond]: evaluates the condition per snapshot-
  /// visible row and tombstones matches at `write_epoch` (physical index
  /// maintenance is deferred until no pinned snapshot can see the rows).
  /// Returns the number of deleted rows. When `stats` is non-null the
  /// predicate-evaluation counters (merged across parallel chunks) are
  /// accumulated into it — previously they were computed and dropped, so
  /// DELETE reported no xquery_evals/cast_failures at all.
  Result<size_t> RunDelete(const DeleteStmt& stmt, uint64_t write_epoch,
                           ExecStats* stats = nullptr);

 private:
  /// What a planned access path delivers once its plan-time assumptions
  /// are re-checked against the live data.
  struct Probe {
    /// False: no pre-filter applies (a scan plan, or a demoted one) and
    /// the caller visits every snapshot-visible row.
    bool prefilter = false;
    /// Candidate rows, ascending; not yet checked against the snapshot.
    std::vector<uint32_t> row_ids;
    /// kIndexOnly: every entry of the covering index, in key order.
    std::vector<DoubleIndexEntry> entries;
  };

  /// The one site that trusts a plan-time assumption at run time. A
  /// summary-derived containment claim must still hold for the live path
  /// summary, and a covering index-only plan needs batch execution on and
  /// zero tolerant cast skips in its index. A path whose assumptions fail
  /// demotes to the scan; otherwise it is probed and metered.
  Result<Probe> ResolveAccess(const AccessPath& path, const Table& table,
                              ExecStats* stats);

  /// fn:count/sum/avg/min/max of a covering index-only plan, computed from
  /// the index entries of the rows visible in the snapshot.
  Result<Sequence> CoveringAggregate(const AccessPath& path,
                                     const Table& table,
                                     std::vector<DoubleIndexEntry> entries,
                                     ExecStats* stats);

  /// A hash join's build table and the probe keys of each current row.
  struct HashJoinState {
    JoinKeyTable table;  // build-item row id by key
    std::vector<std::vector<JoinKey>> probe_keys;
  };

  /// Computes every key of `spec` — `build_rows` of the build item, then
  /// each of `rows` — and hashes the build side. Nothing when a key raised
  /// or would make the comparison cast or raise: the fallback is counted
  /// and the caller runs the nested loop.
  std::optional<HashJoinState> BuildHashJoin(
      const HashJoinSpec& spec, const TableRef& ref, const Table& table,
      const std::vector<uint32_t>& build_rows,
      const std::vector<ColumnSlot>& probe_schema,
      const std::vector<std::vector<SqlValue>>& rows, QueryRuntime* runtime,
      ExecStats* stats);

  /// Appends one row's keys for one side of `spec`; false as above.
  bool AppendRowJoinKeys(const HashJoinSpec& spec, const HashJoinKey& side,
                         const std::vector<ColumnSlot>& schema,
                         const std::vector<SqlValue>& row,
                         QueryRuntime* runtime, ExecStats* stats,
                         std::vector<JoinKey>* keys, unsigned* kinds);

  Result<SqlValue> EvalScalar(const SqlExpr& e,
                              const std::vector<ColumnSlot>& schema,
                              const std::vector<SqlValue>& row,
                              QueryRuntime* runtime, ExecStats* stats);
  Result<bool> EvalPredicate(const SqlExpr& e,
                             const std::vector<ColumnSlot>& schema,
                             const std::vector<SqlValue>& row,
                             QueryRuntime* runtime, ExecStats* stats);
  Result<Sequence> EvalEmbeddedXQuery(const EmbeddedXQuery& q,
                                      const std::vector<ColumnSlot>& schema,
                                      const std::vector<SqlValue>& row,
                                      QueryRuntime* runtime,
                                      ExecStats* stats);
  Result<SqlValue> XmlCastValue(const Sequence& seq, SqlType type, int len);

  /// Applies `where` to every row, preserving order. Fans the per-row
  /// predicate evaluation out to the global thread pool when the row count
  /// warrants it; each worker chunk gets a private QueryRuntime and
  /// ExecStats (summed into `stats` after the join).
  Result<std::vector<std::vector<SqlValue>>> FilterRows(
      const SqlExpr& where, const std::vector<ColumnSlot>& schema,
      std::vector<std::vector<SqlValue>> rows, QueryRuntime* runtime,
      ExecStats* stats);

  /// Row-at-a-time predicate pass over rows[lo, hi): the exact reference
  /// path. Writes keep bits (keep[i - lo]) and counts rows_filtered.
  Status FilterChunkRows(const SqlExpr& where,
                         const std::vector<ColumnSlot>& schema,
                         const std::vector<std::vector<SqlValue>>& rows,
                         size_t lo, size_t hi, QueryRuntime* runtime,
                         ExecStats* stats, std::vector<char>* keep);

  /// Batch-at-a-time predicate pass over rows[lo, hi): conjuncts execute
  /// left-to-right over a narrowing selection vector; vectorized conjuncts
  /// run their kernel (fallback rows re-evaluated exactly), residual
  /// conjuncts evaluate per surviving row. Counter totals and the
  /// first-error choice match FilterChunkRows on every input.
  Status FilterChunkBatch(const BatchProgram& program,
                          const std::vector<ColumnSlot>& schema,
                          const std::vector<std::vector<SqlValue>>& rows,
                          size_t lo, size_t hi, QueryRuntime* runtime,
                          ExecStats* stats, std::vector<char>* keep);

  /// Converts a PASSING argument to an XQuery sequence with the SQL type
  /// mapped to the corresponding XML Schema type (paper §3.3: "$pid
  /// inherits its subtype from the SQL side").
  static Result<Sequence> PassingToSequence(const SqlValue& v);

  Catalog* catalog_;
  uint64_t snapshot_epoch_;
  SnapshotProvider snapshot_provider_;
  bool structural_enabled_ = StructuralJoinDefault();
  bool batch_enabled_ = BatchExecDefault();
  bool static_enabled_ = StaticFoldDefault();
  /// Verified static folds for the statement being executed: conjunct →
  /// proven truth value. Filled once at the top of Run() (after the
  /// witness re-verification) and read-only afterwards, so the parallel
  /// FilterRows chunks share it without synchronization.
  std::map<const SqlExpr*, bool> static_folds_;
};

}  // namespace xqdb

#endif  // XQDB_SQL_EXECUTOR_H_
