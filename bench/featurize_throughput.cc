// Cold-path featurization throughput: parse -> plan -> featurize/scale ->
// assign, reference path vs the production engine path, per benchmark.
//
// Both paths parse the same SQL text and plan each batch into their own
// bump arena (Reset per batch, grow-only). From there the reference path
// returns a fresh std::vector of features per query, scales row-at-a-time,
// and assigns row by row with KMeans::Assign. The engine path is the
// production cold path: featurization writes straight into a reusable
// scratch matrix, scaling is one in-place pass, and ml::NearestCentroids
// assigns the batch in 4-row blocks.
//
// Equivalence gate: per query the two paths must produce the SAME
// template id and BITWISE-equal scaled feature rows. Any divergence
// prints the offender and the process exits nonzero, so CI's
// featurize-smoke step (--quick) catches assignment or featurization bugs
// that would silently re-template queries.
//
// Defaults to paper scale (TPC-DS 93k queries at --scale=1.0; JOB and
// TPC-C always run at their paper counts); --quick shrinks everything
// for CI. Output: a human table plus JSON records (stdout, or
// --json=PATH).

#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ml/kmeans.h"
#include "ml/linalg.h"
#include "ml/scaler.h"
#include "plan/features.h"
#include "plan/plan_node.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/arena.h"
#include "util/timer.h"
#include "workloads/dataset.h"

using namespace wmp;

namespace {

struct PhaseSplit {
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double featurize_ms = 0.0;  // extract + scale
  double assign_ms = 0.0;
  double total() const { return parse_ms + plan_ms + featurize_ms + assign_ms; }
};

struct BenchRow {
  std::string benchmark;
  size_t queries = 0;
  int k = 0;
  PhaseSplit ref;
  PhaseSplit eng;
  double speedup = 0.0;
  double eng_qps = 0.0;
  size_t diverged = 0;
};

std::string ToJson(const BenchRow& r) {
  return StrFormat(
      "{\"figure\":\"featurize_throughput\",\"benchmark\":\"%s\","
      "\"queries\":%zu,\"k\":%d,"
      "\"ref_parse_ms\":%.2f,\"ref_plan_ms\":%.2f,"
      "\"ref_featurize_ms\":%.2f,\"ref_assign_ms\":%.2f,\"ref_ms\":%.2f,"
      "\"eng_parse_ms\":%.2f,\"eng_plan_ms\":%.2f,"
      "\"eng_featurize_ms\":%.2f,\"eng_assign_ms\":%.2f,\"eng_ms\":%.2f,"
      "\"speedup\":%.2f,\"queries_per_sec\":%.0f,\"diverged\":%zu}",
      r.benchmark.c_str(), r.queries, r.k, r.ref.parse_ms, r.ref.plan_ms,
      r.ref.featurize_ms, r.ref.assign_ms, r.ref.total(), r.eng.parse_ms,
      r.eng.plan_ms, r.eng.featurize_ms, r.eng.assign_ms, r.eng.total(),
      r.speedup, r.eng_qps, r.diverged);
}

// Fitted assignment model shared by both paths: scaler + centroids from
// the records' precomputed plan features (exactly what TemplateModel's
// plan-k-means method fits on).
struct AssignModel {
  ml::StandardScaler scaler;
  ml::KMeans kmeans;
};

Result<AssignModel> FitAssignModel(
    const std::vector<workloads::QueryRecord>& records, int k,
    uint64_t seed) {
  ml::Matrix x(records.size(), plan::kPlanFeatureDim);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& f = records[i].plan_features;
    if (f.size() != plan::kPlanFeatureDim) {
      return Status::InvalidArgument("record missing plan features");
    }
    std::copy(f.begin(), f.end(), x.RowPtr(i));
  }
  AssignModel m;
  WMP_RETURN_IF_ERROR(m.scaler.Fit(x));
  WMP_RETURN_IF_ERROR(m.scaler.TransformInPlace(&x));
  ml::KMeansOptions kopt;
  kopt.num_clusters = k;
  kopt.seed = seed;
  WMP_RETURN_IF_ERROR(m.kmeans.Fit(x, kopt));
  return m;
}

// Reference cold path over one batch: per-query feature vectors,
// row-at-a-time scaling, per-row KMeans::Assign. Scaled rows and labels land
// in `scaled`/`labels` for the equivalence gate.
Status RunReferenceBatch(const std::vector<workloads::QueryRecord>& records,
                         size_t begin, size_t end, const plan::Planner& planner,
                         const AssignModel& model, util::Arena* arena,
                         PhaseSplit* split, ml::Matrix* scaled,
                         std::vector<int>* labels) {
  const size_t n = end - begin;
  std::vector<sql::Query> queries;
  queries.reserve(n);
  Stopwatch sw;
  for (size_t i = begin; i < end; ++i) {
    WMP_ASSIGN_OR_RETURN(sql::Query q, sql::Parse(records[i].sql_text));
    queries.push_back(std::move(q));
  }
  split->parse_ms += sw.ElapsedMillis();

  std::vector<const plan::PlanNode*> roots(n);
  sw.Reset();
  for (size_t i = 0; i < n; ++i) {
    WMP_ASSIGN_OR_RETURN(roots[i], planner.CreatePlanInto(queries[i], arena));
  }
  split->plan_ms += sw.ElapsedMillis();

  sw.Reset();
  std::vector<std::vector<double>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = plan::ExtractPlanFeatures(*roots[i]);
    WMP_RETURN_IF_ERROR(model.scaler.TransformRow(&rows[i]));
  }
  split->featurize_ms += sw.ElapsedMillis();

  sw.Reset();
  for (size_t i = 0; i < n; ++i) {
    WMP_ASSIGN_OR_RETURN((*labels)[begin + i], model.kmeans.Assign(rows[i]));
  }
  split->assign_ms += sw.ElapsedMillis();

  for (size_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(), scaled->RowPtr(begin + i));
  }
  arena->Reset();  // rewinds, keeps chunks
  return Status::OK();
}

// Engine cold path over one batch: shared bump arena, scratch-matrix
// featurization, one in-place scaling pass, NearestCentroids assignment.
Status RunEngineBatch(const std::vector<workloads::QueryRecord>& records,
                      size_t begin, size_t end, const plan::Planner& planner,
                      const AssignModel& model, util::Arena* arena,
                      ml::Matrix* scratch, PhaseSplit* split,
                      ml::Matrix* scaled, std::vector<int>* labels) {
  const size_t n = end - begin;
  std::vector<sql::Query> queries;
  queries.reserve(n);
  Stopwatch sw;
  for (size_t i = begin; i < end; ++i) {
    WMP_ASSIGN_OR_RETURN(sql::Query q, sql::Parse(records[i].sql_text));
    queries.push_back(std::move(q));
  }
  split->parse_ms += sw.ElapsedMillis();

  std::vector<const plan::PlanNode*> roots(n);
  sw.Reset();
  for (size_t i = 0; i < n; ++i) {
    WMP_ASSIGN_OR_RETURN(roots[i], planner.CreatePlanInto(queries[i], arena));
  }
  split->plan_ms += sw.ElapsedMillis();

  sw.Reset();
  scratch->Reshape(n, plan::kPlanFeatureDim);
  for (size_t i = 0; i < n; ++i) {
    plan::ExtractPlanFeaturesInto(*roots[i], scratch->RowPtr(i));
  }
  WMP_RETURN_IF_ERROR(model.scaler.TransformInPlace(scratch));
  split->featurize_ms += sw.ElapsedMillis();

  sw.Reset();
  ml::NearestCentroids(scratch->RowPtr(0), n, model.kmeans.centroids(),
                       labels->data() + begin);
  split->assign_ms += sw.ElapsedMillis();

  for (size_t i = 0; i < n; ++i) {
    const double* row = scratch->RowPtr(i);
    std::copy(row, row + plan::kPlanFeatureDim, scaled->RowPtr(begin + i));
  }
  arena->Reset();  // rewinds, keeps chunks
  return Status::OK();
}

Result<BenchRow> RunBenchmark(workloads::Benchmark benchmark,
                              const bench::BenchArgs& args) {
  workloads::DatasetOptions dopt;
  dopt.seed = args.seed;
  const size_t paper = workloads::PaperQueryCount(benchmark);
  if (args.quick) {
    dopt.num_queries = std::min<size_t>(paper, 1000);
  } else if (benchmark == workloads::Benchmark::kTpcds) {
    dopt.num_queries = static_cast<size_t>(
        static_cast<double>(paper) * args.tpcds_scale);
  }
  WMP_ASSIGN_OR_RETURN(workloads::Dataset data,
                       workloads::BuildDataset(benchmark, dopt));
  const auto& records = data.records;

  BenchRow row;
  row.benchmark = data.benchmark_name;
  row.queries = records.size();
  row.k = args.num_templates > 0 ? args.num_templates : 40;
  WMP_ASSIGN_OR_RETURN(AssignModel model,
                       FitAssignModel(records, row.k, args.seed));
  // Drop the fixture's parsed ASTs and plan trees: the cold path under
  // test re-derives both from SQL text, and at paper scale ~100k live
  // mini-arenas otherwise fragment the heap the benchmark allocates from —
  // a fixture artifact no serving process exhibits.
  for (auto& r : data.records) {
    r.query = {};
    r.plan.reset();
    r.plan_features.clear();
    r.plan_features.shrink_to_fit();
  }
  plan::Planner planner(&data.generator->catalog(), dopt.planner);

  const size_t batch =
      args.batch_size > 0 ? static_cast<size_t>(args.batch_size) : 10;
  const size_t n = records.size();
  ml::Matrix ref_scaled(n, plan::kPlanFeatureDim);
  ml::Matrix eng_scaled(n, plan::kPlanFeatureDim);
  std::vector<int> ref_labels(n, -1), eng_labels(n, -1);

  // Two passes per path: the first warms allocator free lists, the bump
  // arena's chunks, and the interner, and is discarded; the second is
  // measured. Without it the path that runs first pays the dataset
  // builder's cold heap and the comparison skews with run order.
  {
    util::Arena arena(plan::kPlanArenaChunk);
    for (int pass = 0; pass < 2; ++pass) {
      PhaseSplit warmup;
      PhaseSplit* split = pass == 0 ? &warmup : &row.ref;
      for (size_t b = 0; b < n; b += batch) {
        WMP_RETURN_IF_ERROR(RunReferenceBatch(
            records, b, std::min(b + batch, n), planner, model, &arena, split,
            &ref_scaled, &ref_labels));
      }
    }
  }
  {
    util::Arena arena(plan::kPlanArenaChunk);
    ml::Matrix scratch;
    for (int pass = 0; pass < 2; ++pass) {
      PhaseSplit warmup;
      PhaseSplit* split = pass == 0 ? &warmup : &row.eng;
      for (size_t b = 0; b < n; b += batch) {
        WMP_RETURN_IF_ERROR(RunEngineBatch(
            records, b, std::min(b + batch, n), planner, model, &arena,
            &scratch, split, &eng_scaled, &eng_labels));
      }
    }
  }

  // Equivalence gate: identical template ids, bitwise-equal scaled rows.
  for (size_t i = 0; i < n; ++i) {
    bool bad = ref_labels[i] != eng_labels[i];
    for (size_t c = 0; !bad && c < plan::kPlanFeatureDim; ++c) {
      bad = std::memcmp(&ref_scaled.At(i, c), &eng_scaled.At(i, c),
                        sizeof(double)) != 0;
    }
    if (bad && row.diverged++ == 0) {
      std::cerr << "DIVERGENCE: " << row.benchmark << " query " << i
                << " ref id " << ref_labels[i] << " vs engine id "
                << eng_labels[i] << "\n";
    }
  }
  row.speedup = row.ref.total() / std::max(row.eng.total(), 1e-3);
  row.eng_qps =
      static_cast<double>(n) / std::max(row.eng.total() / 1e3, 1e-9);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  // Paper scale by default (the paper's query counts), unless the caller
  // passed --scale or --quick.
  bool scale_given = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale_given = true;
  }
  if (!scale_given && !args.quick) args.tpcds_scale = 1.0;
  bench::PrintRunBanner("featurize_throughput",
                        "cold path: parse/plan/featurize/assign, reference vs "
                        "engine",
                        args);

  std::vector<BenchRow> rows;
  bool ok = true;
  for (workloads::Benchmark b : workloads::AllBenchmarks()) {
    auto row = RunBenchmark(b, args);
    if (!row.ok()) {
      std::cerr << "benchmark failed: " << row.status() << "\n";
      return 1;
    }
    if (row->diverged > 0) {
      std::cerr << "EQUIVALENCE BREACH: " << row->benchmark << " has "
                << row->diverged << " diverging queries\n";
      ok = false;
    }
    rows.push_back(std::move(*row));
  }

  // Aggregate row: the workload mix, where TPC-DS's 93k queries dominate.
  {
    BenchRow all;
    all.benchmark = "ALL";
    for (const BenchRow& r : rows) {
      all.queries += r.queries;
      all.k = r.k;
      all.ref.parse_ms += r.ref.parse_ms;
      all.ref.plan_ms += r.ref.plan_ms;
      all.ref.featurize_ms += r.ref.featurize_ms;
      all.ref.assign_ms += r.ref.assign_ms;
      all.eng.parse_ms += r.eng.parse_ms;
      all.eng.plan_ms += r.eng.plan_ms;
      all.eng.featurize_ms += r.eng.featurize_ms;
      all.eng.assign_ms += r.eng.assign_ms;
      all.diverged += r.diverged;
    }
    all.speedup = all.ref.total() / std::max(all.eng.total(), 1e-3);
    all.eng_qps = static_cast<double>(all.queries) /
                  std::max(all.eng.total() / 1e3, 1e-9);
    rows.push_back(std::move(all));
  }

  TablePrinter table("featurize_throughput — cold-path phase split (ms)");
  table.SetHeader({"benchmark", "queries", "k", "ref parse", "ref plan",
                   "ref feat", "ref assign", "ref total", "eng parse",
                   "eng plan", "eng feat", "eng assign", "eng total",
                   "speedup", "eng q/s"});
  for (const BenchRow& r : rows) {
    table.AddRow({r.benchmark, StrFormat("%zu", r.queries),
                  StrFormat("%d", r.k), StrFormat("%.1f", r.ref.parse_ms),
                  StrFormat("%.1f", r.ref.plan_ms),
                  StrFormat("%.1f", r.ref.featurize_ms),
                  StrFormat("%.1f", r.ref.assign_ms),
                  StrFormat("%.1f", r.ref.total()),
                  StrFormat("%.1f", r.eng.parse_ms),
                  StrFormat("%.1f", r.eng.plan_ms),
                  StrFormat("%.1f", r.eng.featurize_ms),
                  StrFormat("%.1f", r.eng.assign_ms),
                  StrFormat("%.1f", r.eng.total()),
                  StrFormat("%.2fx", r.speedup),
                  StrFormat("%.0f", r.eng_qps)});
  }
  table.Print(std::cout);

  FILE* out = stdout;
  if (!args.json_path.empty()) {
    out = std::fopen(args.json_path.c_str(), "w");
    if (out == nullptr) {
      std::cerr << "cannot open " << args.json_path << "\n";
      return 1;
    }
  }
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "  %s%s\n", ToJson(rows[i]).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}
