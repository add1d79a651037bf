// Micro-benchmarks of the real PS runtime (google-benchmark): serialization
// throughput, shard push/pull, one full worker iteration, and subtask
// executor dispatch overhead. These quantify the constants the paper's
// design moves around (e.g. "(de)serialization outside of COMM subtasks").
#include <benchmark/benchmark.h>

#include <memory>

#include "harmony/executor.h"
#include "ml/mlr.h"
#include "ps/allreduce.h"
#include "ps/ps_system.h"
#include "ps/serialization.h"

using namespace harmony;

namespace {

void BM_SerializeDoubles(benchmark::State& state) {
  std::vector<double> values(static_cast<std::size_t>(state.range(0)), 3.14);
  for (auto _ : state) {
    ps::ByteWriter w;
    w.put_doubles(values);
    benchmark::DoNotOptimize(w.buffer());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * static_cast<std::int64_t>(sizeof(double)));
}

void BM_DeserializeDoubles(benchmark::State& state) {
  std::vector<double> values(static_cast<std::size_t>(state.range(0)), 3.14);
  ps::ByteWriter w;
  w.put_doubles(values);
  const auto buf = w.take();
  std::vector<double> out(values.size());
  for (auto _ : state) {
    ps::ByteReader r(buf);
    r.get_doubles_into(out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * static_cast<std::int64_t>(sizeof(double)));
}

void BM_ShardPushPull(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  ps::ServerShard shard(ps::Range{0, dim},
                        [](std::span<double> p, std::span<const double> u) {
                          for (std::size_t i = 0; i < p.size(); ++i) p[i] += u[i];
                        });
  ps::ByteWriter w;
  w.put_u64(0);
  w.put_doubles(std::vector<double>(dim, 0.001));
  const auto push_payload = w.take();
  for (auto _ : state) {
    auto pulled = shard.serialize_params();
    benchmark::DoNotOptimize(pulled);
    shard.apply_push(push_payload);
  }
}

void BM_WorkerIteration(benchmark::State& state) {
  auto data =
      std::make_shared<ml::DenseDataset>(ml::make_classification(256, 16, 4, 0.1, 5));
  auto app = std::make_shared<ml::MlrApp>(data);
  ps::PsSystem system(app, 2);
  system.init_model();
  for (auto _ : state) {
    system.worker(0).run_iteration();
    system.worker(1).run_iteration();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}

void BM_ExecutorDispatch(benchmark::State& state) {
  core::SubtaskExecutor exec;
  for (auto _ : state) {
    std::atomic<int> done{0};
    const int n = 64;
    for (int i = 0; i < n; ++i) {
      core::Subtask st;
      st.job = 0;
      st.type = core::SubtaskType::kComp;
      st.body = [&done] { done.fetch_add(1, std::memory_order_relaxed); };
      exec.submit(std::move(st));
    }
    exec.drain();
    benchmark::DoNotOptimize(done.load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}

// §VI: the alternative communication architecture. One synchronous training
// iteration via PS push/pull vs via ring all-reduce, same app and machines.
void BM_PsIteration(benchmark::State& state) {
  auto data =
      std::make_shared<ml::DenseDataset>(ml::make_classification(512, 32, 8, 0.1, 5));
  auto app = std::make_shared<ml::MlrApp>(data);
  ps::PsSystem system(app, 4);
  system.init_model();
  for (auto _ : state) system.run_iterations_sequential(1);
  state.SetLabel("PS push/pull, 4 workers");
}

void BM_AllReduceIteration(benchmark::State& state) {
  auto data =
      std::make_shared<ml::DenseDataset>(ml::make_classification(512, 32, 8, 0.1, 5));
  auto app = std::make_shared<ml::MlrApp>(data);
  ps::AllReduceSystem system(app, 4);
  system.init_model();
  for (auto _ : state) system.run_iterations_threaded(1);
  state.SetLabel("ring all-reduce, 4 workers");
}

}  // namespace

BENCHMARK(BM_SerializeDoubles)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_DeserializeDoubles)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);
BENCHMARK(BM_ShardPushPull)->Arg(1 << 12)->Arg(1 << 16);
BENCHMARK(BM_WorkerIteration);
BENCHMARK(BM_ExecutorDispatch);
BENCHMARK(BM_PsIteration)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AllReduceIteration)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
