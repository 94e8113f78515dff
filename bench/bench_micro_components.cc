// Micro-benchmarks of the core components (google-benchmark): Gorilla
// codecs, CRC32C, double-array trie, postings ops, skiplist memtable,
// SSTable block build/read. Useful for spotting regressions in the pieces
// the system figures are built from.
#include <benchmark/benchmark.h>

#include "compress/chunk.h"
#include "index/double_array_trie.h"
#include "index/postings.h"
#include "lsm/block.h"
#include "lsm/key_format.h"
#include "lsm/memtable.h"
#include "query/sample_batch.h"
#include "tsbs/devops.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace {

using namespace tu;

void BM_GorillaEncodeSeries(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<compress::Sample> samples;
  Random rng(1);
  double v = 50;
  for (int i = 0; i < n; ++i) {
    v += static_cast<double>(rng.Uniform(5)) - 2;
    samples.push_back({1600000000000LL + i * 30000, v});
  }
  std::string payload;
  for (auto _ : state) {
    compress::EncodeSeriesChunk(1, samples, &payload);
    benchmark::DoNotOptimize(payload);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["bytes_per_sample"] =
      static_cast<double>(payload.size()) / n;
}
BENCHMARK(BM_GorillaEncodeSeries)->Arg(32)->Arg(120)->Arg(1024);

void BM_GorillaDecodeSeries(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<compress::Sample> samples;
  for (int i = 0; i < n; ++i) {
    samples.push_back({i * 30000LL, 50.0 + i % 9});
  }
  std::string payload;
  compress::EncodeSeriesChunk(1, samples, &payload);
  for (auto _ : state) {
    uint64_t seq;
    std::vector<compress::Sample> out;
    compress::DecodeSeriesChunk(payload, &seq, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GorillaDecodeSeries)->Arg(32)->Arg(1024);

// The pattern above compresses to a few bits per value. DevOps values
// (tsbs::DevOpsGenerator: a smooth wave plus jitter) take about 60 bits
// each, so this case decodes 32-sample chunks of them, 10 s apart, through
// the bulk batch decoder the query path uses.
void BM_GorillaDecodeDevOpsBatch(benchmark::State& state) {
  constexpr int kChunk = 32;
  tsbs::DevOpsOptions opts;
  opts.num_hosts = 2;
  opts.interval_ms = 10'000;
  opts.duration_ms = kChunk * opts.interval_ms;
  const tsbs::DevOpsGenerator gen(opts);
  std::vector<std::string> chunks;
  size_t value_bytes = 0;
  for (uint64_t host = 0; host < gen.num_hosts(); ++host) {
    for (int series = 0; series < tsbs::DevOpsGenerator::kSeriesPerHost;
         ++series) {
      std::vector<compress::Sample> samples;
      for (int i = 0; i < kChunk; ++i) {
        const int64_t ts = gen.start_ts() + i * gen.interval_ms();
        samples.push_back({ts, gen.Value(host, series, ts)});
      }
      chunks.emplace_back();
      compress::EncodeSeriesChunk(1, samples, &chunks.back());
      value_bytes += chunks.back().size();
    }
  }
  query::SampleBatch batch;
  for (auto _ : state) {
    for (const std::string& chunk : chunks) {
      compress::DecodeSeriesChunkBatch(chunk, &batch);
      benchmark::DoNotOptimize(batch.values.data());
    }
  }
  const size_t samples = chunks.size() * kChunk;
  state.SetItemsProcessed(state.iterations() * samples);
  state.counters["chunk_bytes_per_sample"] =
      static_cast<double>(value_bytes) / static_cast<double>(samples);
}
BENCHMARK(BM_GorillaDecodeDevOpsBatch);

// The scalar group decoders (group compaction and merge, single-member
// reads): one DevOps host as a group of all its series, 32 rows 10 s apart.
// Arg 0 decodes the whole chunk (DecodeGroupChunk), arg 1 one member
// (DecodeGroupMember); items are decoded values.
void BM_GroupChunkDecode(benchmark::State& state) {
  constexpr int kRows = 32;
  constexpr int kMembers = tsbs::DevOpsGenerator::kSeriesPerHost;
  tsbs::DevOpsOptions opts;
  opts.num_hosts = 1;
  opts.interval_ms = 10'000;
  opts.duration_ms = kRows * opts.interval_ms;
  const tsbs::DevOpsGenerator gen(opts);
  std::vector<compress::GroupRow> rows(kRows);
  for (int i = 0; i < kRows; ++i) {
    rows[i].timestamp = gen.start_ts() + i * gen.interval_ms();
    for (int m = 0; m < kMembers; ++m) {
      rows[i].values.push_back(gen.Value(0, m, rows[i].timestamp));
    }
  }
  std::string payload;
  compress::EncodeGroupChunk(1, kMembers, rows, &payload);
  const bool whole = state.range(0) == 0;
  std::vector<compress::GroupRow> decoded;
  std::vector<compress::Sample> member;
  for (auto _ : state) {
    if (whole) {
      uint64_t seq;
      uint32_t members;
      compress::DecodeGroupChunk(payload, &seq, &members, &decoded);
      benchmark::DoNotOptimize(decoded.data());
    } else {
      compress::DecodeGroupMember(payload, kMembers / 2, &member);
      benchmark::DoNotOptimize(member.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kRows *
                          (whole ? kMembers : 1));
}
BENCHMARK(BM_GroupChunkDecode)->Arg(0)->Arg(1);

// CRC32C over a 4 KiB block and a 160 KiB buffer (about one host's query
// response frame in the benchmark's remote workload).
void BM_Crc32c(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Random rng(3);
  std::string data(n, '\0');
  for (char& c : data) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    uint32_t crc = crc32c::Value(data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(160 << 10);

void BM_TrieInsert(benchmark::State& state) {
  const std::string dir = "/tmp/timeunion_bench/micro_trie";
  for (auto _ : state) {
    state.PauseTiming();
    RemoveDirRecursive(dir);
    index::TrieOptions opts;
    opts.slots_per_file = 1 << 16;
    index::DoubleArrayTrie trie(dir, "t", opts);
    trie.Init();
    state.ResumeTiming();
    for (int i = 0; i < 5000; ++i) {
      trie.Insert("metric$value_" + std::to_string(i), i);
    }
    benchmark::DoNotOptimize(trie.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * 5000);
  RemoveDirRecursive(dir);
}
BENCHMARK(BM_TrieInsert);

void BM_TrieLookup(benchmark::State& state) {
  const std::string dir = "/tmp/timeunion_bench/micro_trie2";
  RemoveDirRecursive(dir);
  index::TrieOptions opts;
  opts.slots_per_file = 1 << 16;
  index::DoubleArrayTrie trie(dir, "t", opts);
  trie.Init();
  for (int i = 0; i < 10000; ++i) {
    trie.Insert("hostname$host_" + std::to_string(i), i);
  }
  uint64_t v = 0;
  int i = 0;
  for (auto _ : state) {
    trie.Lookup("hostname$host_" + std::to_string(i++ % 10000), &v);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
  RemoveDirRecursive(dir);
}
BENCHMARK(BM_TrieLookup);

void BM_PostingsIntersect(benchmark::State& state) {
  index::Postings a, b;
  for (uint64_t i = 0; i < 100000; i += 2) a.push_back(i);
  for (uint64_t i = 0; i < 100000; i += 3) b.push_back(i);
  for (auto _ : state) {
    auto out = index::PostingsIntersect(a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * (a.size() + b.size()));
}
BENCHMARK(BM_PostingsIntersect);

void BM_MemTableAdd(benchmark::State& state) {
  Random rng(7);
  for (auto _ : state) {
    state.PauseTiming();
    lsm::MemTable mem;
    state.ResumeTiming();
    for (uint64_t i = 0; i < 10000; ++i) {
      mem.Add(i, lsm::MakeChunkKey(rng.Uniform(100), rng.Next64() % 1000000),
              "0123456789abcdef0123456789abcdef");
    }
    benchmark::DoNotOptimize(mem.num_entries());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_MemTableAdd);

void BM_BlockBuildAndScan(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (uint64_t i = 0; i < 200; ++i) {
    entries.emplace_back(
        lsm::MakeInternalKey(lsm::MakeChunkKey(7, i * 30000), i),
        std::string(40, 'v'));
  }
  for (auto _ : state) {
    lsm::BlockBuilder builder;
    for (const auto& [k, v] : entries) builder.Add(k, v);
    lsm::Block block(builder.Finish());
    auto it = block.NewIterator();
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * entries.size());
}
BENCHMARK(BM_BlockBuildAndScan);

}  // namespace

BENCHMARK_MAIN();
