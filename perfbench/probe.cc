// Open-loop probe: 64-pair requests sent on a fixed schedule, each timed
// from when it was due. Not a gated workload: steadiness.py records it
// beside the closed-loop runs to show how much of an open-loop tail on
// a shared VM is the host rather than the server.

#include <atomic>
#include <cmath>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "serve/embedding_store.h"
#include "serve/server.h"
#include "workload.h"

namespace hygnn::perfbench {

namespace {

constexpr double kOfferedQps = 4000.0;
constexpr int32_t kPairsPerRequest = 64;
constexpr double kLateMs = 1.0;

void SleepUntil(double when_s) {
  const double wait_s = when_s - NowSeconds();
  if (wait_s > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait_s));
  }
}

}  // namespace

void RunOpenLoopProbe(const Options& options, Report* report) {
  core::SetNumThreads(1);
  SetupPhases phases;
  const std::unique_ptr<Corpus> corpus =
      BuildCorpus(data::SubstructureMode::kEspf, &phases);
  const auto model = InitModel(*corpus, SubSeed(options.seed, 2), &phases);
  serve::EmbeddingStore store(model.get());
  HYGNN_CHECK(store.Rebuild(corpus->context).ok());
  serve::Server server(model.get(), &store, serve::ServerOptions{});
  HYGNN_CHECK(server.Start().ok());

  const int64_t n = std::llround(options.seconds * kOfferedQps);
  const int32_t drugs = corpus->dataset.num_drugs();
  core::Rng rng(SubSeed(options.seed, 4));
  std::vector<serve::ScoreRequest> requests(static_cast<size_t>(n));
  for (auto& request : requests) {
    for (int32_t p = 0; p < kPairsPerRequest; ++p) {
      const auto a = static_cast<int32_t>(rng.UniformInt(drugs));
      const auto b = static_cast<int32_t>(rng.UniformInt(drugs - 1));
      request.pairs.push_back({a, b >= a ? b + 1 : b, 0.0f});
    }
  }

  // The sender publishes handles in order; the waiter collects them in
  // the same order, so completion is observed at most one response late.
  std::vector<std::shared_ptr<serve::Server::Pending>> pending(
      static_cast<size_t>(n));
  std::vector<double> due(static_cast<size_t>(n));
  std::vector<double> late_ms(static_cast<size_t>(n));
  std::vector<double> latency_ms;
  std::atomic<int64_t> published{0};
  int64_t failed = 0;
  const double begin = NowSeconds() + 0.01;
  {
    core::WorkerThread waiter([&] {
      for (int64_t i = 0; i < n; ++i) {
        while (published.load(std::memory_order_acquire) <= i) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        auto& handle = pending[static_cast<size_t>(i)];
        if (handle == nullptr) continue;  // shed at admission
        const bool ok = handle->Wait().ok();
        if (ok) {
          latency_ms.push_back((NowSeconds() - due[static_cast<size_t>(i)]) *
                               1e3);
        }
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      const size_t slot = static_cast<size_t>(i);
      due[slot] = begin + static_cast<double>(i) / kOfferedQps;
      SleepUntil(due[slot]);
      late_ms[slot] = (NowSeconds() - due[slot]) * 1e3;
      auto submitted = server.SubmitAsync(requests[slot]);
      if (submitted.ok()) {
        pending[slot] = std::move(submitted.value());
      } else {
        ++failed;
      }
      published.store(i + 1, std::memory_order_release);
    }
  }
  const double wall_s = NowSeconds() - begin;
  server.Shutdown();
  failed += n - failed - static_cast<int64_t>(latency_ms.size());

  int64_t late = 0;
  for (double ms : late_ms) late += ms > kLateMs ? 1 : 0;
  report->CountOps(n, failed);
  report->EndToEnd("offered_qps", kOfferedQps, "1/s");
  report->EndToEnd("completed_qps",
                   static_cast<double>(latency_ms.size()) / wall_s, "1/s");
  report->EndToEnd("p50_ms", Percentile(latency_ms, 50.0), "ms");
  report->EndToEnd("p99_ms", Percentile(latency_ms, 99.0), "ms");
  report->EndToEnd("late_frac",
                   static_cast<double>(late) / static_cast<double>(n),
                   "frac");
  report->EndToEnd("generator_late_p99_ms", Percentile(late_ms, 99.0), "ms");
}

}  // namespace hygnn::perfbench
