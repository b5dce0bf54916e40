// Tests for the observability layer (src/obs): metric primitives, the
// lock-free per-op kernel timer, the JSONL metrics sink (including its
// behavior under injected storage faults), and the layer's core
// contract — recording metrics never perturbs training numerics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fs.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "data/featurize.h"
#include "data/generator.h"
#include "graph/builders.h"
#include "hygnn/model.h"
#include "hygnn/trainer.h"
#include "obs/metrics.h"
#include "obs/optime.h"
#include "obs/sink.h"
#include "serve/embedding_store.h"
#include "serve/scoring.h"
#include "tensor/loss.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"

namespace hygnn::obs {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  core::PosixFs().Remove(path);
  return path;
}

TEST(CounterTest, AddsAndWrapsModulo2e64) {
  Counter counter;
  counter.Add(3);
  counter.Add();
  EXPECT_EQ(counter.value(), 4u);
  // Overflow is well-defined: unsigned wraparound, never UB.
  counter.Add(UINT64_MAX);
  EXPECT_EQ(counter.value(), 3u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_EQ(gauge.value(), -2.25);
}

TEST(HistogramTest, QuantilesAreExactToBucketResolution) {
  // 10 buckets of width 10; 100 samples spread evenly (10 per bucket).
  Histogram hist({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int i = 0; i < 100; ++i) hist.Observe(i + 0.5);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_NEAR(hist.mean(), 50.0, 0.5);
  const double width = 10.0;  // one bucket of resolution
  EXPECT_NEAR(hist.Quantile(0.50), 50.0, width);
  EXPECT_NEAR(hist.Quantile(0.95), 95.0, width);
  EXPECT_NEAR(hist.Quantile(0.99), 99.0, width);
  EXPECT_NEAR(hist.Quantile(1.00), 100.0, width);
}

TEST(HistogramTest, OverflowBucketReportsLastFiniteBound) {
  Histogram hist({1, 10, 100});
  hist.Observe(1e9);
  const auto counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_EQ(hist.Quantile(0.5), 100.0);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  Histogram hist({1, 2});
  EXPECT_EQ(hist.Quantile(0.99), 0.0);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(ScopedTimerTest, RecordsOnlyWhenMetricsEnabled) {
  Histogram hist(DefaultLatencyBoundsUs());
  {
    // Metrics off (the process default): no sample, no clock read.
    ASSERT_FALSE(MetricsEnabled());
    ScopedTimer span(&hist);
  }
  EXPECT_EQ(hist.count(), 0u);
  {
    ScopedMetricsEnabled on(true);
    ScopedTimer span(&hist);
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_FALSE(MetricsEnabled());  // scope restored the previous state
}

TEST(MetricsRegistryTest, HandlesAreStableAndSnapshotIsSorted) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("test.registry.alpha");
  EXPECT_EQ(c, registry.GetCounter("test.registry.alpha"));
  registry.GetGauge("test.registry.beta")->Set(7.0);
  registry.GetHistogram("test.registry.gamma")->Observe(3.0);
  c->Add(2);
  const auto snapshot = registry.Snapshot();
  std::vector<std::string> names;
  for (const auto& snap : snapshot) names.push_back(snap.name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  bool saw_counter = false;
  for (const auto& snap : snapshot) {
    if (snap.name == "test.registry.alpha") {
      saw_counter = true;
      EXPECT_EQ(snap.kind, MetricSnapshot::Kind::kCounter);
      EXPECT_EQ(snap.count, 2u);
    }
  }
  EXPECT_TRUE(saw_counter);
  registry.ResetValues();
  EXPECT_EQ(c->value(), 0u);
  // Reset clears values but keeps registrations: the handle stays valid.
  EXPECT_EQ(registry.GetCounter("test.registry.alpha"), c);
}

TEST(JsonWriterTest, EscapesAndFormats) {
  JsonWriter writer;
  writer.Str("s", "a\"b\\c\nd").Int("i", -3).Uint("u", 5).Num("x", 0.5);
  EXPECT_EQ(writer.Finish(),
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"i\":-3,\"u\":5,\"x\":0.5}");
  JsonWriter empty;
  EXPECT_EQ(empty.Finish(), "{}");
  JsonWriter nonfinite;
  nonfinite.Num("nan", std::nan(""));
  EXPECT_EQ(nonfinite.Finish(), "{\"nan\":null}");
}

TEST(MetricsRecorderTest, InertWithoutPath) {
  MetricsRecorder recorder("");
  EXPECT_FALSE(recorder.active());
  recorder.Event("{\"type\":\"event\"}");
  EXPECT_TRUE(recorder.Flush().ok());  // touches no disk
}

TEST(MetricsRecorderTest, RoundTripsThroughFaultInjectingFs) {
  core::FaultInjectingFs faulty(&core::PosixFs());
  core::ScopedFileSystem scoped(&faulty);
  const std::string path = TempPath("obs_roundtrip.jsonl");

  MetricsRecorder recorder(path);
  ASSERT_TRUE(recorder.active());
  JsonWriter event;
  event.Str("type", "event").Str("event", "unit").Int("epoch", 0);
  recorder.Event(event.Finish());
  MetricsRegistry::Global().GetCounter("test.sink.events")->Add(1);
  ASSERT_TRUE(recorder.Flush().ok());

  auto body = ReadMetricsFileVerified(path);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  const auto lines = SplitJsonlLines(body.value());
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("\"event\":\"unit\""), std::string::npos);
  bool saw_counter = false;
  for (const auto& line : lines) {
    if (line.find("\"name\":\"test.sink.events\"") != std::string::npos) {
      saw_counter = true;
      EXPECT_NE(line.find("\"type\":\"counter\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_counter);

  // A dead disk fails the flush with a typed error — and because the
  // write is temp + rename, the last good copy survives untouched.
  faulty.FailAllAppends(true);
  EXPECT_FALSE(recorder.Flush().ok());
  faulty.FailAllAppends(false);
  EXPECT_TRUE(ReadMetricsFileVerified(path).ok());

  // A torn write (tail lost after the rename committed) is rejected by
  // the CRC trailer instead of being parsed as a shorter-but-valid file.
  faulty.TruncateClosesBy(10);
  ASSERT_TRUE(recorder.Flush().ok());
  faulty.TruncateClosesBy(0);
  auto torn = ReadMetricsFileVerified(path);
  ASSERT_FALSE(torn.ok());
  MetricsRegistry::Global().ResetValues();
}

TEST(MetricsRecorderTest, RejectsForeignFile) {
  const std::string path = TempPath("obs_foreign.jsonl");
  ASSERT_TRUE(core::WriteFileAtomic(core::PosixFs(), path,
                                    "{\"type\":\"event\"}\n")
                  .ok());
  auto body = ReadMetricsFileVerified(path);
  ASSERT_FALSE(body.ok());
  EXPECT_NE(body.status().message().find("#crc32"), std::string::npos);
}

TEST(OpTimeTest, AttributesForwardAndBackwardToOpTags) {
  ResetOpTimes();
  SetKernelTimingEnabled(true);
  const auto a = tensor::CsrMatrix::FromCoo(4, 4, {0, 1, 2, 3, 3},
                                            {1, 0, 3, 2, 3},
                                            {1.0f, 0.5f, 2.0f, 1.0f, 0.25f});
  tensor::Tensor x = tensor::Tensor::Full(4, 4, 0.5f, /*requires_grad=*/true);
  tensor::Tensor w = tensor::Tensor::Full(4, 1, 0.25f, /*requires_grad=*/true);
  tensor::Tensor loss = tensor::BceWithLogitsLoss(
      tensor::MatMul(tensor::SpMM(a, x), w), {1.0f, 0.0f, 1.0f, 0.0f});
  loss.Backward();
  SetKernelTimingEnabled(false);

  // Every node of the graph is one tape op: one forward and one
  // backward call each, SpMM and the loss included.
  std::vector<std::string> seen;
  for (const auto& entry : OpTimeSnapshot()) {
    seen.push_back(entry.op);
    EXPECT_EQ(entry.forward_calls, 1u) << entry.op;
    EXPECT_EQ(entry.backward_calls, 1u) << entry.op;
    EXPECT_GE(entry.forward_ms, 0.0) << entry.op;
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"BceWithLogitsLoss", "MatMul",
                                            "SpMM"}));

  // Disabled timing records nothing.
  ResetOpTimes();
  tensor::Tensor y = tensor::MatMul(x, w);
  EXPECT_TRUE(OpTimeSnapshot().empty());
  (void)y;
}

TEST(OpTimeTest, AggregatesAcrossThreadPoolWorkers) {
  // The slot table must absorb concurrent spans from ParallelFor
  // workers without locks; run under tsan via scripts/check.sh.
  ResetOpTimes();
  SetKernelTimingEnabled(true);
  constexpr int64_t kSpans = 512;
  core::ParallelFor(0, kSpans, /*grain=*/8, [](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      RecordForward("TestConcurrentOp", 100);
      RecordBackward("TestConcurrentOp", 100);
    }
  });
  SetKernelTimingEnabled(false);
  bool found = false;
  for (const auto& entry : OpTimeSnapshot()) {
    if (entry.op == "TestConcurrentOp") {
      found = true;
      EXPECT_EQ(entry.forward_calls, static_cast<uint64_t>(kSpans));
      EXPECT_EQ(entry.backward_calls, static_cast<uint64_t>(kSpans));
    }
  }
  EXPECT_TRUE(found);
  ResetOpTimes();
}

/// Miniature training pipeline for the bit-identity and serving tests.
struct ObsPipeline {
  ObsPipeline() {
    data::DatasetConfig data_config;
    data_config.num_drugs = 50;
    data_config.seed = 909;
    dataset = std::make_unique<data::DdiDataset>(
        data::GenerateDataset(data_config).value());
    data::FeaturizeConfig feat_config;
    feat_config.espf_frequency_threshold = 3;
    featurizer = std::make_unique<data::SubstructureFeaturizer>(
        data::SubstructureFeaturizer::Build(dataset->drugs(), feat_config)
            .value());
    auto hypergraph = graph::BuildDrugHypergraph(
        featurizer->drug_substructures(), featurizer->num_substructures());
    context = std::make_unique<model::HypergraphContext>(
        model::HypergraphContext::FromHypergraph(hypergraph));
    core::Rng rng(910);
    for (int32_t i = 0; i + 1 < context->num_edges; i += 2) {
      pairs.push_back({i, i + 1, static_cast<float>((i / 2) % 2)});
    }
  }

  model::HyGnnModel MakeModel() const {
    core::Rng rng(911);
    model::HyGnnConfig config;
    config.encoder.hidden_dim = 8;
    config.encoder.output_dim = 8;
    return model::HyGnnModel(featurizer->num_substructures(), config, &rng);
  }

  std::unique_ptr<data::DdiDataset> dataset;
  std::unique_ptr<data::SubstructureFeaturizer> featurizer;
  std::unique_ptr<model::HypergraphContext> context;
  std::vector<data::LabeledPair> pairs;
};

std::vector<float> FlattenWeights(const model::HyGnnModel& model) {
  std::vector<float> flat;
  for (const auto& p : model.Parameters()) {
    flat.insert(flat.end(), p.data(), p.data() + p.size());
  }
  return flat;
}

TEST(ObsTest, MetricsDoNotPerturbTraining) {
  ObsPipeline pipeline;
  model::TrainConfig config;
  config.epochs = 4;
  config.batch_size = 16;
  config.validation_fraction = 0.25;
  config.seed = 31;

  model::HyGnnModel plain = pipeline.MakeModel();
  model::HyGnnTrainer plain_trainer(&plain, config);
  plain_trainer.Fit(*pipeline.context, pipeline.pairs);

  model::TrainConfig instrumented = config;
  instrumented.metrics_path = TempPath("obs_bitident.jsonl");
  model::HyGnnModel recorded = pipeline.MakeModel();
  model::HyGnnTrainer recorded_trainer(&recorded, instrumented);
  recorded_trainer.Fit(*pipeline.context, pipeline.pairs);

  // The whole point of the layer: instrumentation is passive. Weights
  // and loss history are bit-identical with metrics on or off.
  const auto a = FlattenWeights(plain);
  const auto b = FlattenWeights(recorded);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
  const auto& la = plain_trainer.epoch_losses();
  const auto& lb = recorded_trainer.epoch_losses();
  ASSERT_EQ(la.size(), lb.size());
  EXPECT_EQ(std::memcmp(la.data(), lb.data(), la.size() * sizeof(float)), 0);

  // And the run actually produced a valid, checksummed JSONL file with
  // one epoch event per epoch plus the train_done summary.
  auto body = ReadMetricsFileVerified(instrumented.metrics_path);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  int epoch_events = 0;
  bool saw_done = false, saw_op = false, saw_histogram = false;
  for (const auto& line : SplitJsonlLines(body.value())) {
    if (line.find("\"event\":\"epoch\"") != std::string::npos) ++epoch_events;
    if (line.find("\"event\":\"train_done\"") != std::string::npos) {
      saw_done = true;
    }
    if (line.find("\"type\":\"op\"") != std::string::npos) saw_op = true;
    if (line.find("\"name\":\"train.epoch_us\"") != std::string::npos) {
      saw_histogram = true;
    }
  }
  EXPECT_EQ(epoch_events,
            static_cast<int>(recorded_trainer.epoch_losses().size()));
  EXPECT_TRUE(saw_done);
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_histogram);
  EXPECT_FALSE(MetricsEnabled()) << "trainer must restore the metrics gate";
  EXPECT_FALSE(KernelTimingEnabled());
  MetricsRegistry::Global().ResetValues();
  ResetOpTimes();
}

TEST(ObsTest, ServingMetricsCoverStagesAndCache) {
  ObsPipeline pipeline;
  model::HyGnnModel hygnn = pipeline.MakeModel();
  serve::EmbeddingStore store(&hygnn);
  ASSERT_TRUE(store.Rebuild(*pipeline.context).ok());
  serve::ScreeningEngine engine(&hygnn, &store);

  ScopedMetricsEnabled on(true);
  MetricsRegistry::Global().ResetValues();
  const auto hits = engine.Screen({/*query=*/0, /*top_k=*/5}).value().hits;
  EXPECT_EQ(hits.size(), 5u);

  auto& registry = MetricsRegistry::Global();
  const uint64_t scored = registry.GetCounter("serve.pairs_scored")->value();
  EXPECT_EQ(scored, static_cast<uint64_t>(store.num_drugs() - 1));
  EXPECT_EQ(registry.GetCounter("serve.embedding_cache.hits")->value(),
            2 * scored);
  EXPECT_GE(registry.GetHistogram("serve.score_us")->count(), 1u);
  EXPECT_GE(registry.GetHistogram("serve.gather_us")->count(), 1u);
  EXPECT_GE(registry.GetHistogram("serve.decode_us")->count(), 1u);
  EXPECT_EQ(registry.GetHistogram("serve.topk_rank_us")->count(), 1u);

  // AddDrug counts as a cache miss; Rebuild bumps the rebuild counter.
  ASSERT_TRUE(store.AddDrug({0}).ok());
  EXPECT_EQ(registry.GetCounter("serve.embedding_cache.misses")->value(), 1u);
  ASSERT_TRUE(store.Rebuild(*pipeline.context).ok());
  EXPECT_EQ(registry.GetCounter("serve.embedding_cache.rebuilds")->value(),
            1u);
  MetricsRegistry::Global().ResetValues();
}

}  // namespace
}  // namespace hygnn::obs
