// Tests for the deployment features: model persistence (the paper's
// "ship the model into the DBMS product" lifecycle), variable-length
// workloads, and the elbow-method template tuner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/featurizer.h"
#include "core/learned_wmp.h"
#include "core/template_learner.h"
#include "ml/regressor.h"
#include "plan/features.h"
#include "workloads/dataset.h"

namespace wmp::core {
namespace {

class PersistenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workloads::DatasetOptions opt;
    opt.num_queries = 500;
    opt.seed = 21;
    auto d = workloads::BuildDataset(workloads::Benchmark::kTpcc, opt);
    ASSERT_TRUE(d.ok());
    dataset_ = new workloads::Dataset(std::move(*d));
    indices_ = new std::vector<uint32_t>(AllIndices(dataset_->records.size()));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    delete indices_;
  }

  static LearnedWmpModel TrainSmall(ml::RegressorKind kind,
                                    TemplateMethod method =
                                        TemplateMethod::kPlanKMeans) {
    LearnedWmpOptions opt;
    opt.templates.method = method;
    opt.templates.num_templates = 8;
    opt.regressor = kind;
    auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                        *dataset_->generator, opt);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(*model);
  }

  static workloads::Dataset* dataset_;
  static std::vector<uint32_t>* indices_;
};

workloads::Dataset* PersistenceTest::dataset_ = nullptr;
std::vector<uint32_t>* PersistenceTest::indices_ = nullptr;

// ---------- TemplateModel persistence ----------

TEST_F(PersistenceTest, PlanKMeansTemplatesRoundTrip) {
  TemplateLearnerOptions opt;
  opt.num_templates = 8;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  ASSERT_TRUE(model->Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = TemplateModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_templates(), model->num_templates());
  for (uint32_t i : *indices_) {
    EXPECT_EQ(restored->Assign(dataset_->records[i]).value(),
              model->Assign(dataset_->records[i]).value());
  }
}

TEST_F(PersistenceTest, RuleBasedTemplatesRoundTrip) {
  TemplateLearnerOptions opt;
  opt.method = TemplateMethod::kRuleBased;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  ASSERT_TRUE(model->Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = TemplateModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_templates(), model->num_templates());
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(restored->Assign(dataset_->records[i]).value(),
              model->Assign(dataset_->records[i]).value());
  }
}

TEST_F(PersistenceTest, TextMethodsAreNotSerializable) {
  TemplateLearnerOptions opt;
  opt.method = TemplateMethod::kBagOfWords;
  opt.num_templates = 4;
  auto model = TemplateModel::Learn(dataset_->records, *indices_,
                                    *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  EXPECT_EQ(model->Serialize(&w).code(), StatusCode::kNotImplemented);
}

TEST_F(PersistenceTest, UnlearnedTemplateModelRefusesSerialize) {
  TemplateModel model;
  BinaryWriter w;
  EXPECT_TRUE(model.Serialize(&w).IsFailedPrecondition());
}

// ---------- crafted template blocks ----------
//
// Each block is well formed byte for byte but describes shapes the
// assignment path cannot run on. Decoding must refuse it, before anything
// is built from the shapes.

// Template block header: tag "WMPT", method, k, log_transform_cards.
void WriteTemplateHeader(BinaryWriter* w, TemplateMethod method, int64_t k) {
  w->WriteU32(0x574D5054);
  w->WriteU8(static_cast<uint8_t>(method));
  w->WriteI64(k);
  w->WriteU8(0);
}

void WriteScaler(BinaryWriter* w, size_t width) {
  w->WriteU32(ml::serialize_tags::kScaler);
  w->WriteDoubleVec(std::vector<double>(width, 0.0));
  w->WriteDoubleVec(std::vector<double>(width, 1.0));
}

std::string KMeansBlock(int64_t k, size_t centroid_width) {
  BinaryWriter w;
  WriteTemplateHeader(&w, TemplateMethod::kPlanKMeans, k);
  WriteScaler(&w, plan::kPlanFeatureDim);
  w.WriteU32(ml::serialize_tags::kKMeans);
  w.WriteU64(static_cast<uint64_t>(k));
  w.WriteU64(centroid_width);
  w.WriteDoubleVec(
      std::vector<double>(static_cast<size_t>(k) * centroid_width, 0.5));
  w.WriteDouble(0.0);  // inertia
  return w.buffer();
}

Status DecodeTemplates(const std::string& bytes) {
  BinaryReader r(bytes);
  return TemplateModel::Deserialize(&r).status();
}

TEST_F(PersistenceTest, CentroidsWiderThanScalerRejected) {
  ASSERT_TRUE(DecodeTemplates(KMeansBlock(2, plan::kPlanFeatureDim)).ok());
  EXPECT_FALSE(DecodeTemplates(KMeansBlock(2, 64)).ok());
}

TEST_F(PersistenceTest, WrappingCentroidShapeRejected) {
  // rows = cols = 2^32 with no data: rows * cols wraps to 0 entries.
  const uint64_t huge = uint64_t{1} << 32;
  for (TemplateMethod method :
       {TemplateMethod::kPlanKMeans, TemplateMethod::kPlanDbscan}) {
    BinaryWriter w;
    WriteTemplateHeader(&w, method, 2);
    WriteScaler(&w, plan::kPlanFeatureDim);
    const bool kmeans = method == TemplateMethod::kPlanKMeans;
    if (kmeans) w.WriteU32(ml::serialize_tags::kKMeans);
    w.WriteU64(huge);
    w.WriteU64(huge);
    w.WriteDoubleVec({});
    if (kmeans) w.WriteDouble(0.0);  // inertia
    EXPECT_FALSE(DecodeTemplates(w.buffer()).ok())
        << TemplateMethodName(method);
  }
}

TEST_F(PersistenceTest, RuleCountBeyondStreamRejected) {
  const auto rule_block = [](int64_t k, uint64_t rules) {
    BinaryWriter w;
    WriteTemplateHeader(&w, TemplateMethod::kRuleBased, k);
    w.WriteU64(rules);
    return w.buffer();
  };
  ASSERT_TRUE(DecodeTemplates(rule_block(1, 0)).ok());
  EXPECT_FALSE(DecodeTemplates(rule_block(1, uint64_t{1} << 40)).ok());
  EXPECT_FALSE(
      DecodeTemplates(rule_block((int64_t{1} << 40) + 1, uint64_t{1} << 40))
          .ok());
}

// ---------- LearnedWmpModel persistence ----------

class LearnedPersistence
    : public PersistenceTest,
      public ::testing::WithParamInterface<ml::RegressorKind> {};

TEST_P(LearnedPersistence, FullModelRoundTripsThroughBytes) {
  LearnedWmpModel model = TrainSmall(GetParam());
  BinaryWriter w;
  ASSERT_TRUE(model.Serialize(&w).ok());
  BinaryReader r(w.buffer());
  auto restored = LearnedWmpModel::Deserialize(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Identical predictions on several workloads.
  for (uint32_t start = 0; start + 10 <= 100; start += 10) {
    std::vector<uint32_t> batch;
    for (uint32_t i = start; i < start + 10; ++i) batch.push_back(i);
    EXPECT_NEAR(
        restored->PredictWorkload(dataset_->records, batch).value(),
        model.PredictWorkload(dataset_->records, batch).value(), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LearnedPersistence,
    ::testing::Values(ml::RegressorKind::kRidge, ml::RegressorKind::kGbt,
                      ml::RegressorKind::kRandomForest,
                      ml::RegressorKind::kMlp),
    [](const ::testing::TestParamInfo<ml::RegressorKind>& info) {
      return ml::RegressorKindName(info.param);
    });

TEST_F(PersistenceTest, FileRoundTrip) {
  LearnedWmpModel model = TrainSmall(ml::RegressorKind::kGbt);
  const std::string path = ::testing::TempDir() + "/model.wmp";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto restored = LearnedWmpModel::LoadFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::vector<uint32_t> batch{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_DOUBLE_EQ(
      restored->PredictWorkload(dataset_->records, batch).value(),
      model.PredictWorkload(dataset_->records, batch).value());
}

TEST_F(PersistenceTest, CorruptStreamRejected) {
  LearnedWmpModel model = TrainSmall(ml::RegressorKind::kRidge);
  BinaryWriter w;
  ASSERT_TRUE(model.Serialize(&w).ok());
  // Truncate at several depths; every prefix must fail cleanly, not crash.
  for (size_t cut : {size_t{0}, size_t{4}, size_t{10}, w.size() / 2,
                     w.size() - 1}) {
    BinaryReader r(w.buffer().substr(0, cut));
    EXPECT_FALSE(LearnedWmpModel::Deserialize(&r).ok()) << "cut=" << cut;
  }
  // Flip the magic.
  std::string bad = w.buffer();
  bad[0] = 'X';
  BinaryReader r(bad);
  EXPECT_TRUE(
      LearnedWmpModel::Deserialize(&r).status().IsInvalidArgument());
}

TEST_F(PersistenceTest, UntrainedModelRefusesSerialize) {
  LearnedWmpModel model;
  BinaryWriter w;
  EXPECT_TRUE(model.Serialize(&w).IsFailedPrecondition());
}

// ---------- variable-length workloads ----------

TEST_F(PersistenceTest, VariableLengthPredictsAnyBatchSize) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.batch_size = 10;
  opt.variable_length = true;
  opt.regressor = ml::RegressorKind::kRidge;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Predict batches of sizes the model never saw in training.
  for (size_t size : {3u, 10u, 25u}) {
    std::vector<uint32_t> batch;
    for (uint32_t i = 0; i < size; ++i) batch.push_back(i);
    auto pred = model->PredictWorkload(dataset_->records, batch);
    ASSERT_TRUE(pred.ok()) << "size " << size;
    EXPECT_GT(*pred, 0.0);
    double actual = 0;
    for (uint32_t i : batch) actual += dataset_->records[i].actual_memory_mb;
    // Within a loose factor: the point is sane scaling, not accuracy.
    EXPECT_LT(*pred, 6.0 * actual) << "size " << size;
    EXPECT_GT(*pred, actual / 6.0) << "size " << size;
  }
}

TEST_F(PersistenceTest, VariableLengthScalesWithBatchSize) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.variable_length = true;
  opt.regressor = ml::RegressorKind::kRidge;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  ASSERT_TRUE(model.ok());
  std::vector<uint32_t> small{0, 1, 2, 3, 4};
  std::vector<uint32_t> large;
  for (uint32_t rep = 0; rep < 4; ++rep) {
    for (uint32_t i : small) large.push_back(i);
  }
  // Same distribution, 4x the mass -> ~4x the prediction.
  const double p_small =
      model->PredictWorkload(dataset_->records, small).value();
  const double p_large =
      model->PredictWorkload(dataset_->records, large).value();
  EXPECT_NEAR(p_large / p_small, 4.0, 1e-6);
}

TEST_F(PersistenceTest, VariableLengthRequiresSumLabel) {
  LearnedWmpOptions opt;
  opt.templates.num_templates = 8;
  opt.variable_length = true;
  opt.label = WorkloadLabel::kMax;
  auto model = LearnedWmpModel::Train(dataset_->records, *indices_,
                                      *dataset_->generator, opt);
  EXPECT_TRUE(model.status().IsInvalidArgument());
}

// ---------- elbow tuner ----------

TEST_F(PersistenceTest, ElbowTunerPicksFromCandidates) {
  std::vector<int> ks{2, 4, 8, 12, 16, 24};
  auto k = ChooseNumTemplates(dataset_->records, *indices_, ks, 3);
  ASSERT_TRUE(k.ok()) << k.status().ToString();
  EXPECT_NE(std::find(ks.begin(), ks.end(), *k), ks.end());
  // TPC-C has 12 distinct query shapes; the elbow should land well below
  // the maximum candidate.
  EXPECT_LT(*k, 24);
}

TEST_F(PersistenceTest, ElbowTunerErrors) {
  EXPECT_TRUE(ChooseNumTemplates(dataset_->records, *indices_, {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ChooseNumTemplates(dataset_->records, {}, {2, 3})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace wmp::core
