// Propeller end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//   perfbench --selftest
//
// --trace 0 measures the gated end-to-end metrics on an untraced cluster:
// simulated latencies, set-up time and footprint.  --trace 1 makes an
// untraced pass (the wall-clock end-to-end figures) and a traced pass over
// the same ops, half of the planned ones, whose simulated costs must agree
// exactly, then replays one group standalone; it reports the wall-clock
// figures and the per-layer metrics.  The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "replay.h"
#include "runner.h"
#include "util.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

int RunSelfTests();  // selftest.cc

namespace {

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kPageBytes = 4096.0;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  bool selftest = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      o->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o->seconds = std::atof(v);
    } else if (a == "--trace") {
      o->trace = std::atoi(v);
    } else if (a == "--out-dir") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  return o->selftest || (!o->workload.empty() && o->seconds > 0 &&
                         (o->trace == 0 || o->trace == 1));
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Wall and simulated latencies (us) of one op kind in one phase.
struct Latencies {
  std::vector<double> wall_us, sim_us;
};
Latencies Collect(const Runner& r, OpKind kind, bool probe) {
  Latencies l;
  for (const OpSample& s : r.samples()) {
    if (s.kind != kind || s.probe != probe) continue;
    l.wall_us.push_back(s.wall_s * 1e6);
    l.sim_us.push_back(s.sim_s * 1e6);
  }
  return l;
}
// Search-only workloads measure writes in their write probe.
Latencies Searches(const Runner& r) { return Collect(r, OpKind::kSearch, false); }
Latencies Updates(const Runner& r) { return Collect(r, OpKind::kUpdate, !r.spec().ingest); }

// Completed main-phase ops (ticks included) per second of their own wall
// time.
double OpsPerSecond(const Runner& r) {
  return Ratio(static_cast<double>(r.phase_ops(0)), r.phase_wall_s(0));
}

// Simulated costs of every recorded op, in order (trace-neutrality check).
std::vector<double> SimSequence(const Runner& r) {
  std::vector<double> out;
  for (const OpSample& s : r.samples()) out.push_back(s.sim_s);
  return out;
}

// The gated end-to-end metrics: simulated latencies (deterministic per
// seed), set-up time and footprint.
std::vector<Metric> EndToEnd(Runner& r, double setup_s) {
  const Latencies search = Searches(r), update = Updates(r);
  const double live = static_cast<double>(r.model().live());
  return {
      {"search_sim_p50_us", Percentile(search.sim_us, 50), "us"},
      {"search_sim_p99_us", Percentile(search.sim_us, 99), "us"},
      {"update_sim_p50_us", Percentile(update.sim_us, 50), "us"},
      {"update_sim_p99_us", Percentile(update.sim_us, 99), "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"index_bytes_per_row",
       Ratio(static_cast<double>(r.cluster().TotalIndexPages()) * kPageBytes, live), "B"},
  };
}

// Wall-clock end-to-end figures of an untraced pass.  Host speed drifts
// too much between runs for them to gate a change (see README.md), so
// they are reported beside the per-layer metrics.
std::vector<Metric> WallEndToEnd(const Runner& r) {
  const Latencies search = Searches(r), update = Updates(r);
  return {
      {"search_wall_p50_us", Percentile(search.wall_us, 50), "us"},
      {"search_wall_p99_us", Percentile(search.wall_us, 99), "us"},
      {"update_wall_p50_us", Percentile(update.wall_us, 50), "us"},
      {"update_wall_p99_us", Percentile(update.wall_us, 99), "us"},
      {"ops_per_s", OpsPerSecond(r), "1/s"},
  };
}

uint64_t CounterSum(core::PropellerCluster& c, const std::string& name) {
  uint64_t sum = 0;
  for (const auto& [section, snap] : c.PerNodeMetrics()) {
    auto it = snap.counters.find(name);
    if (it != snap.counters.end()) sum += it->second;
  }
  return sum;
}

std::vector<Metric> PerLayer(Runner& r, const ReplayResult& rp,
                             double untraced_ops_per_s, uint64_t wal_bytes,
                             uint64_t staged_rows,
                             double error_rate) {
  const KindTotals& s = r.totals(OpKind::kSearch);
  const KindTotals& u = r.totals(OpKind::kUpdate);
  const KindTotals& t = r.totals(OpKind::kTick);
  const double searches = static_cast<double>(s.ops);
  const double batches = static_cast<double>(u.ops);
  const double ops = static_cast<double>(s.ops + u.ops + t.ops);
  auto totals = r.tap().Totals();
  auto m = [&](const char* method) { return totals[method]; };
  const RpcTap::MethodTotals rs = m("mn.resolve_search"), ru = m("mn.resolve_update"),
                             hb = m("mn.heartbeat"), is = m("in.search"),
                             st = m("in.stage_updates"), tk = m("in.tick");
  uint64_t in_calls = 0, in_failed = 0;
  for (const auto& [method, mt] : totals) {
    if (method.rfind("in.", 0) != 0) continue;
    in_calls += mt.calls;
    in_failed += mt.failed;
  }
  const SpanStats& sp = r.spans();
  const double traced_ops_per_s = OpsPerSecond(r);
  const double cache_lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  return {
      {"client.search.self_wall_us", 1e6 * Ratio(s.wall_s - s.handler_wall_s, searches), "us"},
      {"client.update.self_wall_us", 1e6 * Ratio(u.wall_s - u.handler_wall_s, batches), "us"},
      {"master.resolve_search.per_search", Ratio(rs.calls, searches), "1/op"},
      {"master.resolve_search.wall_us", 1e6 * Ratio(rs.self_wall_s, rs.calls), "us"},
      {"master.resolve_update.per_batch", Ratio(ru.calls, batches), "1/op"},
      {"master.resolve_update.wall_us", 1e6 * Ratio(ru.self_wall_s, ru.calls), "us"},
      {"master.resolve.sim_us", 1e6 * Ratio(rs.sim_s + ru.sim_s, rs.calls + ru.calls), "us"},
      {"master.heartbeat.wall_us_per_op", 1e6 * Ratio(hb.self_wall_s, ops), "us"},
      {"in.search.per_search", Ratio(is.calls, searches), "1/op"},
      {"in.search.self_wall_us", 1e6 * Ratio(is.self_wall_s, is.calls), "us"},
      {"in.search.sim_us", 1e6 * Ratio(is.sim_s, is.calls), "us"},
      {"in.stage_updates.per_batch", Ratio(st.calls, batches), "1/op"},
      {"in.stage_updates.self_wall_us", 1e6 * Ratio(st.self_wall_s, st.calls), "us"},
      {"in.stage_updates.sim_us", 1e6 * Ratio(st.sim_s, st.calls), "us"},
      {"in.tick.wall_us_per_op", 1e6 * Ratio(tk.self_wall_s, ops), "us"},
      {"in.rpc.failed_frac", Ratio(in_failed, in_calls), "frac"},
      {"net.messages_per_op",
       Ratio(s.net_messages + u.net_messages + t.net_messages, ops), "1/op"},
      {"net.bytes_per_search", Ratio(s.net_bytes, searches), "B"},
      {"net.bytes_per_update_row", Ratio(u.net_bytes, u.rows), "B"},
      {"group.search.per_search", Ratio(sp.Count("group.search"), searches), "1/op"},
      {"group.search.sim_self_us", 1e6 * Ratio(sp.SelfSeconds("group.search"), searches), "us"},
      {"group.commit.sim_self_us_per_kop",
       1e6 * Ratio(sp.SelfSeconds("group.commit"), ops / 1000.0), "us"},
      {"group.commit.on_search_frac", Ratio(sp.commits_on_search(), sp.commits()), "frac"},
      {"wal.append.sim_self_us",
       1e6 * Ratio(sp.SelfSeconds("wal.append"), sp.Count("wal.append")), "us"},
      {"in.wal.bytes_per_row", Ratio(wal_bytes, staged_rows), "B"},
      {"io.cache.hits_per_search", Ratio(s.cache_hits, searches), "1/op"},
      {"io.cache.misses_per_search", Ratio(s.cache_misses, searches), "1/op"},
      {"io.cache.evictions_per_search", Ratio(s.cache_evictions, searches), "1/op"},
      {"io.cache.hit_rate", Ratio(s.cache_hits, cache_lookups), "frac"},
      {"replay.kdtree.range_query_ns", rp.kd_range_query_ns, "ns"},
      {"replay.record_store.get_ns", rp.record_get_ns, "ns"},
      {"replay.page_cache.touch_hit_ns", rp.touch_hit_ns, "ns"},
      {"replay.page_cache.touch_evict_ns", rp.touch_evict_ns, "ns"},
      {"replay.index_group.search_us", rp.group_search_us, "us"},
      {"replay.index_group.stage_ns", rp.group_stage_ns, "ns"},
      {"replay.index_group.commit_us", rp.group_commit_us, "us"},
      {"sim.unattributed_frac", Ratio(sp.unattributed_s(), sp.cost_s()), "frac"},
      {"trace.overhead_frac", Ratio(untraced_ops_per_s, traced_ops_per_s) - 1.0, "frac"},
      {"error_rate", error_rate, "frac"},
  };
}

// One group's committed rows, read through the node's public accessors.
std::vector<FileUpdate> GroupRows(core::PropellerCluster& c) {
  std::vector<FileUpdate> rows;
  core::IndexNode& node = c.index_node(0);
  const auto stats = node.GroupStats();
  if (stats.empty()) return rows;
  index::IndexGroup* g = node.FindGroup(stats.front().group);
  if (g == nullptr) return rows;
  (void)g->ForEachRecord([&](FileId f, const index::AttrSet& attrs) {
    FileUpdate u;
    u.file = f;
    u.attrs = attrs;
    rows.push_back(std::move(u));
  });
  return rows;
}

std::string EnvJson(const Options& o, const WorkloadSpec& w) {
  std::string s = "{";
  s += "\"workload\":" + Quote(w.name);
  s += ",\"seed\":" + std::to_string(o.seed);
  s += ",\"seconds\":" + Num(o.seconds);
  s += ",\"trace\":" + std::to_string(o.trace);
  s += ",\"index_nodes\":" + std::to_string(w.index_nodes);
  s += ",\"rows\":" + std::to_string(w.rows);
  s += ",\"cache_pages\":" + std::to_string(w.cache_pages);
  const Plan plan = PlanFor(w, o.seconds);
  s += ",\"steps\":" + std::to_string(plan.steps);
  s += ",\"probe_batches\":" + std::to_string(plan.probe_batches);
  s += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
  s += ",\"compiler\":" + Quote(PERFBENCH_COMPILER);
  s += ",\"build_type\":" + Quote(PERFBENCH_BUILD_TYPE);
  return s + "}";
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += Quote(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
         ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  return s + "}";
}

std::string SelfTimeJson(const SpanStats& sp) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, t] : sp.by_name()) {
    if (!first) s += ",";
    first = false;
    s += Quote(name) + ":{\"count\":" + std::to_string(t.count) +
         ",\"self_us\":" + Num(t.self_s * 1e6) +
         ",\"critical_us\":" + Num(t.critical_s * 1e6) + "}";
  }
  return s + "}";
}

void WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
}

void Report(const std::vector<std::string>& failures) {
  for (const std::string& f : failures) std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
}

// What one run found, before it is printed.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  bool truncated = false;
  std::vector<Metric> metrics;
  std::string detail;  // extra fields for the result file

  void Add(const Runner& r) {
    attempted += r.attempted();
    failed += r.failed();
    truncated = truncated || r.truncated();
    Report(r.failures());
  }
};

// --trace 0: several set-ups, then the planned ops on the last cluster.
Outcome RunUntraced(const Options& o, const WorkloadSpec& w, const Plan& plan) {
  Outcome out;
  Runner r(w, o.seed);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(r.Setup());
  r.RunMain(plan.steps);
  r.RunProbe(plan.probe_batches);
  out.Add(r);
  out.metrics = EndToEnd(r, Median(setups));
  // peak_rss_mb includes the benchmark's own row model; record its size.
  out.detail = ",\"samples\":" + std::to_string(r.samples().size()) +
               ",\"model_mb\":" + Num(static_cast<double>(r.model().HeapBytes()) / 1048576.0);
  return out;
}

// --trace 1: an untraced and a traced pass over the first half of the
// planned ops, which keeps a traced run about as long as an untraced one.
// The untraced pass is the reference for sim neutrality and trace
// overhead.
Outcome RunTraced(const Options& o, const WorkloadSpec& w, const Plan& plan) {
  Outcome out;
  const Plan half{plan.steps / 2, plan.probe_batches / 2};
  std::vector<double> reference;
  double untraced_ops_per_s = 0;
  {
    Runner a(w, o.seed);
    a.Setup();
    a.RunMain(half.steps);
    a.RunProbe(half.probe_batches);
    out.Add(a);
    reference = SimSequence(a);
    untraced_ops_per_s = OpsPerSecond(a);
    out.metrics = WallEndToEnd(a);
  }
  Runner b(w, o.seed);
  b.Setup();
  core::PropellerCluster& c = b.cluster();
  const uint64_t wal0 = CounterSum(c, "in.wal.bytes");
  const uint64_t staged0 = CounterSum(c, "in.updates.staged");
  b.EnableTracing();
  b.RunMain(half.steps);
  b.RunProbe(half.probe_batches);
  out.Add(b);
  if (SimSequence(b) != reference) {
    out.correct = false;
    std::fprintf(stderr, "perfbench: FAILED traced run changed simulated costs\n");
  }
  const uint64_t wal = CounterSum(c, "in.wal.bytes") - wal0;
  const uint64_t staged = CounterSum(c, "in.updates.staged") - staged0;

  ReplayInput in;
  in.rows = GroupRows(c);
  in.queries = b.queries();
  in.now_q = b.NowQ();
  in.seed = o.seed;
  const ReplayResult rp = RunReplay(in);
  if (rp.mismatches != 0) {
    out.correct = false;
    std::fprintf(stderr, "perfbench: FAILED %llu replayed searches disagree\n",
                 static_cast<unsigned long long>(rp.mismatches));
  }
  const double error_rate = Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  for (Metric& m : PerLayer(b, rp, untraced_ops_per_s, wal, staged, error_rate)) {
    out.metrics.push_back(std::move(m));
  }
  out.detail = ",\"replay_rows\":" + std::to_string(in.rows.size()) +
               ",\"self_time\":" + SelfTimeJson(b.spans());
  // One call log per workload (the latest traced run): it is large.
  if (!o.out_dir.empty()) b.tap().WriteCsv(o.out_dir + "/" + w.name + ".rpc.csv");
  return out;
}

int Run(const Options& o, const WorkloadSpec& w) {
  const std::string env = EnvJson(o, w);
  std::printf("env %s\n", env.c_str());
  const Plan plan = PlanFor(w, o.seconds);
  Outcome out = o.trace == 0 ? RunUntraced(o, w, plan) : RunTraced(o, w, plan);
  if (out.truncated) {
    std::fprintf(stderr, "perfbench: WARNING a phase hit its wall-time cap; "
                         "sim metrics cover fewer ops than planned\n");
    out.detail += ",\"truncated\":true";
  }
  const bool correct = out.correct && out.failed == 0 && out.attempted > 0;
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(out.attempted) +
                             ", \"failed\": " + std::to_string(out.failed) +
                             ", \"metrics\": " + MetricsJson(out.metrics) + "}";
  if (!o.out_dir.empty()) {
    const std::string path = o.out_dir + "/" + w.name + "-seed" + std::to_string(o.seed) +
                             "-trace" + std::to_string(o.trace) + ".json";
    WriteFile(path, "{\"env\":" + env + out.detail + ",\"result\":" + result + "}\n");
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] | --selftest\n");
    return 2;
  }
  if (o.selftest) return RunSelfTests();
  const WorkloadSpec* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  return Run(o, *w);
}
