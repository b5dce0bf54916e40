#include <algorithm>

#include "core/logging.h"
#include "workload.h"

namespace hygnn::perfbench {

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value) {
  const auto& known = LayerMetrics();
  HYGNN_CHECK(std::any_of(known.begin(), known.end(),
                          [&](const auto& m) { return m.first == name; }))
      << "undeclared per-layer metric " << name;
  layers_[name] = value;
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const auto* metrics = [] {
    auto* m = new std::vector<std::pair<std::string, std::string>>{
        // Set-up phases, median over the set-up repeats.
        {"data.generate_ms", "ms"},
        {"chem.featurize_ms", "ms"},
        {"graph.hypergraph_ms", "ms"},
        {"data.split_ms", "ms"},
        {"hygnn.init_ms", "ms"},
        {"serve.rebuild_ms", "ms"},
        {"serve.start_ms", "ms"},
        {"setup.warmup_ms", "ms"},
        // Mean traced op: the whole the parts below add up to.
        {"trace.op_mean_ms", "ms"},
        // Training step, per step: encode + decode + loss + backward +
        // optim + step_rest = trace.op_mean_ms.
        {"hygnn.encode_ms", "ms"},
        {"hygnn.decode_ms", "ms"},
        {"tensor.loss_ms", "ms"},
        {"tensor.backward_ms", "ms"},
        {"tensor.optim_ms", "ms"},
        {"hygnn.step_rest_ms", "ms"},
    };
    for (const char* op : kReportedOps) {
      m->push_back({std::string("tensor.op.") + op + ".fwd_ms", "ms"});
      m->push_back({std::string("tensor.op.") + op + ".bwd_ms", "ms"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        // Tagged ops outside the list above (fused groups, Dropout, ...)
        // and the tensor time no op tag covers (SpMM, Adam, tape glue):
        // listed ops + other + unattributed = encode + decode + loss +
        // backward + optim.
        {"tensor.op_other_ms", "ms"},
        {"tensor.op_unattributed_ms", "ms"},
        {"tensor.matmul_gflop_per_step", "GFLOP"},
        {"tensor.matmul_gflops", "GFLOP/s"},
        {"tensor.ops_per_step", "count"},
        {"tensor.buffers_per_step", "count"},
        {"tensor.fused_per_step", "count"},
        {"hygnn.final_loss", "bce"},
        // Process counters over the untraced timed phase, per op.
        {"proc.minflt_per_step", "count"},
        {"proc.sys_frac", "frac"},
        {"proc.cpu_per_wall", "frac"},
        // Serving reads: submit + queue_wait_mean + batch_score +
        // handoff = read_mean (means, in microseconds).
        {"serve.read_mean_us", "us"},
        {"serve.read_p50_us", "us"},
        {"serve.submit_us", "us"},
        {"serve.queue_wait_mean_us", "us"},
        {"serve.queue_wait_p50_us", "us"},
        {"serve.queue_wait_p99_us", "us"},
        {"serve.batch_score_us", "us"},
        {"serve.handoff_us", "us"},
        {"serve.batch_pairs", "count"},
        {"serve.requests_per_batch", "count"},
        {"serve.gather_us", "us"},
        {"serve.decode_us", "us"},
        {"serve.score_ns_per_pair", "ns"},
        // Churn onboarding: segment + add_drug + screen + onboard_rest =
        // onboard_mean.
        {"serve.onboard_mean_us", "us"},
        {"chem.segment_us", "us"},
        {"serve.add_drug_us", "us"},
        {"serve.screen_us", "us"},
        {"serve.onboard_rest_us", "us"},
        {"serve.publish_kb", "KiB"},
        {"serve.generations", "count"},
        {"serve.shed", "count"},
        {"serve.expired", "count"},
        {"obs.trace_overhead_frac", "frac"},
    };
    m->insert(m->end(), rest.begin(), rest.end());
    return m;
  }();
  return *metrics;
}

void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<Round>& rounds, Report* report) {
  std::vector<double> p50, tail, rate;
  Tail round_tail;
  for (const Round& round : rounds) {
    round_tail = TailOf(round.op_ms);
    if (!round_tail.valid()) {
      report->Fail("too few ops per round for a tail percentile");
      return;
    }
    p50.push_back(Median(round.op_ms));
    tail.push_back(round_tail.value);
    rate.push_back(round.pairs / round.wall_s);
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("peak_rss_mb", ReadUsage().max_rss_mb, "MB");
  report->EndToEnd("op_p50_ms", Median(p50), "ms");
  report->EndToEnd("op_tail_ms", Median(tail), "ms");
  report->EndToEnd("pairs_per_s", Median(rate), "1/s");
  report->Note("op_tail_ms is " + round_tail.Label() + " of " +
               std::to_string(round_tail.samples) + " ops (" +
               std::to_string(round_tail.beyond) + " beyond it); op " +
               "metrics are medians over " + std::to_string(rounds.size()) +
               " round(s)");
}

void ReportProcess(const Usage& before, const Usage& after, int64_t ops,
                   double wall_s, Report* report) {
  const double sys_s = after.sys_s - before.sys_s;
  const double cpu_s = after.user_s - before.user_s + sys_s;
  report->Layer("proc.minflt_per_step",
                static_cast<double>(after.minflt - before.minflt) /
                    static_cast<double>(ops));
  report->Layer("proc.sys_frac", cpu_s > 0.0 ? sys_s / cpu_s : 0.0);
  report->Layer("proc.cpu_per_wall", cpu_s / wall_s);
}

void ReportSetupPhases(const std::vector<SetupPhases>& phases,
                       Report* report) {
  auto median_of = [&](double SetupPhases::*field) {
    std::vector<double> values;
    for (const auto& p : phases) values.push_back(p.*field);
    return Median(values);
  };
  report->Layer("data.generate_ms", median_of(&SetupPhases::generate_ms));
  report->Layer("chem.featurize_ms", median_of(&SetupPhases::featurize_ms));
  report->Layer("graph.hypergraph_ms",
                median_of(&SetupPhases::hypergraph_ms));
  report->Layer("data.split_ms", median_of(&SetupPhases::split_ms));
  report->Layer("hygnn.init_ms", median_of(&SetupPhases::init_ms));
  report->Layer("serve.rebuild_ms", median_of(&SetupPhases::rebuild_ms));
  report->Layer("serve.start_ms", median_of(&SetupPhases::start_ms));
  report->Layer("setup.warmup_ms", median_of(&SetupPhases::warmup_ms));
}

}  // namespace hygnn::perfbench
