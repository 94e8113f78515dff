// Grouping analysis (Table 1, Eqs. 1-6): evaluates the paper's analytic
// index-space and query-cost models, and cross-checks the index-space
// prediction against the measured inverted index of this implementation.
#include <cstdio>

#include "bench_util.h"
#include "cloud/cost_model.h"
#include "core/timeunion_db.h"
#include "tsbs/devops.h"

using namespace tu;
using namespace tu::bench;

int main() {
  // TSBS DevOps parameters from §3.1: Sg=101, Tu=118, Tg=1, Sp=8, St=15.
  cloud::GroupingParams p;
  p.n = 101'000;
  p.t = 12;
  p.s_p = 8;
  p.s_t = 15;
  p.s_g = 101;
  p.t_g = 1;
  p.t_u = 118;

  PrintHeader("Eq. 1/2", "index space model (TSBS DevOps parameters)");
  const double cost1 = cloud::IndexCostNoGrouping(p);
  const double cost2 = cloud::IndexCostGrouping(p);
  PrintRow("Cost_s1 (no grouping)", cost1 / 1048576.0, "MB");
  PrintRow("Cost_s2 (grouping)", cost2 / 1048576.0, "MB");
  PrintRow("space saving", 100.0 * (cost1 - cost2) / cost1, "%");
  PrintRow("grouping beneficial (Sg threshold)",
           cloud::GroupingSavesIndexSpace(p) ? 1 : 0, "bool");

  PrintHeader("Eq. 3-6", "query cost model (per-query us)");
  cloud::QueryCostParams q;
  q.p = 12;              // 12 partitions in a 24h query at 2h partitions
  q.s_data = 240 * 16;   // raw bytes/series/PARTITION (2h at 30s interval)
  q.l = 5;
  q.g = 1;
  q.s_g = 101;
  std::printf("  %-34s %12s %12s\n", "case", "L=5/G=1", "L=1/G=1");
  const double q1_ebs_5 = cloud::QueryCostNoGroupingEbs(q);
  const double q1_s3_5 = cloud::QueryCostNoGroupingS3(q);
  const double q2_ebs = cloud::QueryCostGroupingEbs(q);
  const double q2_s3 = cloud::QueryCostGroupingS3(q);
  q.l = 1;
  const double q1_ebs_1 = cloud::QueryCostNoGroupingEbs(q);
  const double q1_s3_1 = cloud::QueryCostNoGroupingS3(q);
  std::printf("  %-34s %12.1f %12.1f\n", "no grouping, EBS (Eq.3)", q1_ebs_5,
              q1_ebs_1);
  std::printf("  %-34s %12.1f %12.1f\n", "no grouping, S3  (Eq.4)", q1_s3_5,
              q1_s3_1);
  std::printf("  %-34s %12.1f %12.1f\n", "grouping, EBS    (Eq.5)", q2_ebs,
              q2_ebs);
  std::printf("  %-34s %12.1f %12.1f\n", "grouping, S3     (Eq.6)", q2_s3,
              q2_s3);
  std::printf(
      "\n  model checks: on S3, grouping wins when L > G (5-1-24 case);\n"
      "  on EBS, per-byte cost makes the individual model win when the\n"
      "  queried member count is small (Sg counteracts G < L).\n");

  // Measured: build both layouts over the same hosts and compare index
  // memory.
  PrintHeader("measured", "index memory, individual vs grouping");
  tsbs::DevOpsOptions gen_opts;
  gen_opts.num_hosts = 20;
  tsbs::DevOpsGenerator gen(gen_opts);
  uint64_t mem_individual = 0, mem_grouped = 0;
  {
    core::DBOptions opts;
    opts.workspace = FreshWorkspace("grouping_individual");
    std::unique_ptr<core::TimeUnionDB> db;
    if (!core::TimeUnionDB::Open(opts, &db).ok()) return 1;
    uint64_t ref;
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      for (int s = 0; s < 101; ++s) {
        db->RegisterSeries(gen.SeriesLabels(h, s), &ref);
      }
    }
    mem_individual = db->IndexMemoryUsage();
  }
  {
    core::DBOptions opts;
    opts.workspace = FreshWorkspace("grouping_grouped");
    std::unique_ptr<core::TimeUnionDB> db;
    if (!core::TimeUnionDB::Open(opts, &db).ok()) return 1;
    std::vector<index::Labels> member_tags(101);
    for (int s = 0; s < 101; ++s) member_tags[s] = gen.UniqueTags(s);
    const std::vector<double> values(101, 1.0);
    core::WriteBatch batch;
    for (uint64_t h = 0; h < gen.num_hosts(); ++h) {
      batch.AddGroupRow(gen.HostTags(h), member_tags, 0, values);
    }
    core::WriteResult written;
    if (!WriteRows(db.get(), batch, &written).ok()) return 1;
    mem_grouped = db->IndexMemoryUsage();
  }
  PrintRow("individual model", mem_individual / 1024.0, "KB");
  PrintRow("grouping model", mem_grouped / 1024.0, "KB");
  PrintRow("measured saving",
           100.0 * (1.0 - static_cast<double>(mem_grouped) /
                              static_cast<double>(mem_individual)),
           "%");
  return 0;
}
