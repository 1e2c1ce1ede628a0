// Compiled-traversal micro-bench: CompiledEnsemble::Predict on DT/RF/GBT
// ensembles and a u16-code DT, swept over batch sizes {1, 10, 100, 1000}.
//
// This isolates the compiled traversal — synthetic training data, no
// workload pipeline — so the numbers measure pure traversal throughput
// (rows/sec). Every configuration's predictions are gated bitwise against
// the raw-space Regressor::Predict on the same chunking; any divergence is
// a nonzero exit (CI runs `--quick`). BENCH_traverse.json keeps the last
// sweep of the retired lockstep-4, AVX2 gather and top-level lookup-table
// variants against the scalar and lockstep-8 walks that remain.
//
// Flags: --quick (CI smoke size), --json=PATH (trajectory records),
// --seed=<n>.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ml/compiled_tree.h"
#include "ml/dtree.h"
#include "ml/gbt.h"
#include "ml/random_forest.h"
#include "util/random.h"
#include "util/timer.h"

using namespace wmp;

namespace {

// Keeps Predict results observable across timing passes.
volatile double g_sink = 0.0;

struct SyntheticData {
  ml::Matrix train;
  ml::Matrix test;
  std::vector<double> y;
};

SyntheticData MakeData(size_t n, size_t n_test, size_t d, uint64_t seed) {
  SyntheticData data;
  Rng rng(seed);
  data.train = ml::Matrix(n, d);
  data.test = ml::Matrix(n_test, d);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.train.At(i, c) = rng.UniformDouble(-5, 5);
    }
    data.y[i] = data.train.At(i, 0) * data.train.At(i, 0) -
                2.0 * data.train.At(i, 1 % d) +
                (data.train.At(i, 2 % d) > 0 ? 3.0 : -1.0) +
                rng.Normal(0, 0.25);
  }
  // Test rows range wider than training so traversal leaves the fitted
  // edges too.
  for (size_t i = 0; i < n_test; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.test.At(i, c) = rng.UniformDouble(-8, 8);
    }
  }
  return data;
}

struct ModelSpec {
  std::string name;
  std::unique_ptr<ml::Regressor> model;
  SyntheticData data;
};

// Paper-scale-ish families: RF ~100 trees, GBT ~200 rounds (shrunk under
// --quick), a deep single DT, and a wide-bin DT that forces u16 codes.
std::vector<ModelSpec> TrainModels(bool quick, uint64_t seed) {
  std::vector<ModelSpec> specs;
  const size_t n = quick ? 1500 : 4000;
  const size_t n_test = quick ? 512 : 2048;
  {
    ModelSpec s;
    s.name = "dt";
    s.data = MakeData(n, n_test, 16, seed + 1);
    ml::DecisionTreeOptions opt;
    opt.tree.max_depth = 12;
    opt.seed = 3;
    auto m = std::make_unique<ml::DecisionTreeRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    ModelSpec s;
    s.name = "rf";
    s.data = MakeData(n, n_test, 16, seed + 2);
    ml::RandomForestOptions opt;
    opt.num_trees = quick ? 20 : 100;
    opt.tree.max_depth = 10;
    opt.seed = 5;
    auto m = std::make_unique<ml::RandomForestRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    ModelSpec s;
    s.name = "gbt";
    s.data = MakeData(n, n_test, 16, seed + 3);
    ml::GbtOptions opt;
    opt.num_rounds = quick ? 40 : 200;
    opt.max_depth = 6;
    opt.seed = 7;
    auto m = std::make_unique<ml::GbtRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  {
    // > 255 distinct thresholds per feature falls back to u16 codes.
    ModelSpec s;
    s.name = "dt_wide";
    s.data = MakeData(quick ? 2000 : 4000, n_test, 2, seed + 4);
    ml::DecisionTreeOptions opt;
    opt.tree.max_depth = 16;
    opt.tree.max_bins = 4096;
    opt.tree.min_samples_leaf = 1;
    opt.seed = 11;
    auto m = std::make_unique<ml::DecisionTreeRegressor>(opt);
    if (!m->Fit(s.data.train, s.data.y).ok()) std::abort();
    s.model = std::move(m);
    specs.push_back(std::move(s));
  }
  return specs;
}

std::vector<ml::Matrix> SplitChunks(const ml::Matrix& x, size_t batch) {
  std::vector<ml::Matrix> chunks;
  for (size_t begin = 0; begin < x.rows(); begin += batch) {
    const size_t rows = std::min(batch, x.rows() - begin);
    ml::Matrix m(rows, x.cols());
    for (size_t i = 0; i < rows; ++i) {
      for (size_t c = 0; c < x.cols(); ++c) {
        m.At(i, c) = x.At(begin + i, c);
      }
    }
    chunks.push_back(std::move(m));
  }
  return chunks;
}

// Concatenated predictions over `chunks`, or false on error.
template <typename Model>
bool PredictChunks(const Model& model, const std::vector<ml::Matrix>& chunks,
                   std::vector<double>* predictions) {
  predictions->clear();
  for (const ml::Matrix& m : chunks) {
    auto p = model.Predict(m);
    if (!p.ok()) return false;
    predictions->insert(predictions->end(), p->begin(), p->end());
  }
  return true;
}

// Timed passes repeat until `min_ms` has elapsed. Returns rows/sec, or -1
// on error.
double MeasureRowsPerSec(const ml::CompiledEnsemble& compiled,
                         const std::vector<ml::Matrix>& chunks, size_t rows,
                         double min_ms) {
  int reps = 0;
  double ms = 0.0;
  Stopwatch sw;
  do {
    double sum = 0.0;
    for (const ml::Matrix& m : chunks) {
      auto p = compiled.Predict(m);
      if (!p.ok()) return -1.0;
      sum += p->front();
    }
    g_sink = g_sink + sum;
    ++reps;
    ms = sw.ElapsedMillis();
  } while (ms < min_ms);
  return 1e3 * static_cast<double>(rows) * reps / ms;
}

struct BenchRow {
  std::string model;
  std::string codes;  // "u8" | "u16"
  size_t batch = 0;
  double rows_per_sec = 0.0;
};

std::string ToJson(const BenchRow& r) {
  return StrFormat(
      "{\"figure\":\"traverse_kernel\",\"model\":\"%s\",\"codes\":\"%s\","
      "\"batch\":%zu,\"rows_per_sec\":%.0f}",
      r.model.c_str(), r.codes.c_str(), r.batch, r.rows_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseArgs(argc, argv);
  std::printf("=======================================================\n");
  std::printf("traverse_kernel — compiled bin-space traversal\n");
  std::printf("quick=%s seed=%llu\n", args.quick ? "yes" : "no",
              static_cast<unsigned long long>(args.seed));
  std::printf("=======================================================\n");

  const std::vector<size_t> batches = args.quick
                                          ? std::vector<size_t>{1, 100, 512}
                                          : std::vector<size_t>{1, 10, 100,
                                                                1000};
  const double min_ms = args.quick ? 10.0 : 60.0;

  std::vector<ModelSpec> specs = TrainModels(args.quick, args.seed);
  std::vector<BenchRow> rows;
  size_t mismatches = 0;
  for (const ModelSpec& spec : specs) {
    auto compiled = ml::CompiledEnsemble::CompileRegressor(*spec.model);
    if (!compiled.ok()) {
      std::cerr << "compile failed: " << compiled.status() << "\n";
      return 1;
    }
    const char* codes = compiled->narrow() ? "u8" : "u16";
    std::printf("\nmodel %s: %zu trees, %zu nodes, %s codes\n",
                spec.name.c_str(), compiled->num_trees(),
                compiled->num_nodes(), codes);
    TablePrinter table(StrFormat("%s — rows/sec by batch size",
                                 spec.name.c_str()));
    table.SetHeader({"batch", "rows/sec"});
    for (size_t batch : batches) {
      const std::vector<ml::Matrix> chunks = SplitChunks(spec.data.test, batch);
      const size_t n = spec.data.test.rows();
      std::vector<double> want, got;
      if (!PredictChunks(*spec.model, chunks, &want)) {
        std::cerr << "reference predict failed\n";
        return 1;
      }
      // Bitwise gate: the compiled traversal must reproduce the raw-space
      // walk exactly on this chunking (lockstep blocks and ragged tails).
      if (!PredictChunks(*compiled, chunks, &got)) {
        std::cerr << "predict failed\n";
        return 1;
      }
      for (size_t i = 0; i < want.size(); ++i) {
        if (got[i] != want[i]) {
          std::cerr << "BITWISE MISMATCH: " << spec.name << " batch=" << batch
                    << " row " << i << ": " << got[i] << " vs " << want[i]
                    << "\n";
          ++mismatches;
          break;
        }
      }
      const double rps = MeasureRowsPerSec(*compiled, chunks, n, min_ms);
      if (rps < 0) {
        std::cerr << "predict failed\n";
        return 1;
      }
      table.AddRow({StrFormat("%zu", batch), StrFormat("%.0f", rps)});
      rows.push_back(BenchRow{spec.name, codes, batch, rps});
    }
    table.Print(std::cout);
  }

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

  if (mismatches > 0) {
    std::cerr << mismatches << " configuration(s) diverged from the "
                               "raw-space walk\n";
    return 1;
  }
  std::printf("\nevery configuration bitwise-identical to the raw-space "
              "walk\n");
  return 0;
}
