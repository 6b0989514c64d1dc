// The benchmark's own tests (perfbench --selftest): the row model catches
// a wrong result, the replay evaluates queries at the time they were sent, the
// Zipf hot set stays put, the RPC tap forwards payloads and statuses byte
// for byte, tracing changes no simulated cost, and the seed alone fixes the
// inputs.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "replay.h"
#include "rpc_tap.h"
#include "runner.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

WorkloadSpec Tiny(bool ingest) {
  return WorkloadSpec{"tiny", 2, 6'000, 0, ingest, 0, 0};
}

// Steps and probe batches of a tiny run.
void RunTiny(Runner& r) {
  r.RunMain(r.spec().ingest ? 512 : 24);
  r.RunProbe(64);
}

std::vector<double> Sims(const Runner& r) {
  std::vector<double> out;
  for (const OpSample& s : r.samples()) out.push_back(s.sim_s);
  return out;
}

void OracleCatchesWrongResult() {
  Runner r(Tiny(false), 11);
  r.Setup();
  r.RunMain(8);
  Expect(r.failed() == 0 && r.attempted() == 8, "searches agree with the model");
  // A phantom row the cluster never saw, matching every generated query:
  // larger than any size threshold, modified later than now, keyword in
  // its path.
  FileUpdate phantom;
  phantom.file = r.spec().rows + 1000;
  phantom.attrs.Set("size", index::AttrValue(int64_t{100} << 20));
  phantom.attrs.Set("mtime", index::AttrValue(r.NowQ() + 1'000'000));
  phantom.attrs.Set("uid", index::AttrValue(int64_t{0}));
  phantom.attrs.Set("path", index::AttrValue(std::string("/data/") + kKeyword + "/x.txt"));
  r.CorruptModel(phantom);
  r.RunMain(8);
  Expect(r.failed() == 8, "model flags every search missing a row");

  Model m;
  for (FileUpdate& u : workload::SyntheticRows(1, 500, DatasetFor(3, 500))) m.Apply(u);
  Query q;
  q.mtime_gt = -1'000'000'000;  // any age
  q.size_gt = 0;
  std::vector<FileId> want = m.Expected(q);
  std::vector<FileId> wrong = want;
  wrong.pop_back();
  Expect(want.size() == 500 && wrong != want, "model compares whole file sets");
}

// Queries sent over an advancing clock, replayed later: each must be
// evaluated at the time it was sent.  Rows modified just after each query's
// cutoff would drop out if the replay parsed them at the later clock.
void ReplayUsesSendTime() {
  QueryGen gen(21);
  ReplayInput in;
  in.rows = workload::SyntheticRows(1, 600, DatasetFor(21, 600));
  for (int i = 0; i < 40; ++i) {
    in.queries.push_back(gen.Next(kEpochNow + 10 * i));
    FileUpdate& edge = in.rows[static_cast<size_t>(i)];
    edge.attrs.Set("size", index::AttrValue(int64_t{100} << 20));
    edge.attrs.Set("mtime", index::AttrValue(in.queries.back().mtime_gt + 1));
    edge.attrs.Set("path", index::AttrValue(std::string("/data/") + kKeyword + "/e.txt"));
  }
  in.now_q = kEpochNow + 10'000;
  in.seed = 21;
  Model m;
  m.Apply(in.rows);
  bool edges_expected = true;
  for (int i = 0; i < 40; ++i) {
    const std::vector<FileId> want = m.Expected(in.queries[static_cast<size_t>(i)]);
    edges_expected = edges_expected &&
                     std::binary_search(want.begin(), want.end(), in.rows[static_cast<size_t>(i)].file);
  }
  Expect(edges_expected, "rows just inside each query's window are expected");
  Expect(RunReplay(in).mismatches == 0, "replay evaluates each query at the time it was sent");
}

// Modifies drawn by rank name the same files for the whole run: the
// hottest file of the first batches is still the hottest much later.
void ZipfHotSetIsStable() {
  const WorkloadSpec w = Tiny(true);
  const workload::DatasetSpec spec = DatasetFor(9, w.rows);
  Model m;
  m.Apply(workload::SyntheticRows(1, w.rows, spec));
  UpdateGen gen(SubSeed(9, 3), spec, w.rows, w.rows + 1);
  auto hottest = [&](int batches) {
    std::vector<uint32_t> hits(w.rows + 1, 0);
    for (int b = 0; b < batches; ++b) {
      std::vector<FileUpdate> batch = gen.NextBatch(m, kEpochNow);
      for (const FileUpdate& u : batch) {
        if (!u.is_delete && u.file <= w.rows) ++hits[u.file];
      }
      m.Apply(batch);
    }
    return static_cast<FileId>(std::max_element(hits.begin(), hits.end()) - hits.begin());
  };
  const FileId early = hottest(400);
  const FileId late = hottest(400);
  Expect(early != 0 && early == late, "the Zipf hot set stays on the same files");
}

class Stub : public net::RpcHandler {
 public:
  std::string seen_method, seen_payload;
  Response Handle(const std::string& method, const std::string& payload) override {
    seen_method = method;
    seen_payload = payload;
    return Response{propeller::Status::NotFound("no such group"),
                    std::string("r\0e\xffs", 4), sim::Cost(1.25e-3)};
  }
};

void TapForwardsBytes() {
  const std::string payload("p\0a\x01y", 5);
  Stub direct_stub, tapped_stub;
  net::Transport direct, tapped;
  direct.Register(5, &direct_stub);
  RpcTap tap;
  tap.Wrap(tapped, 5, &tapped_stub);
  auto a = direct.Call(1, 5, "in.search", payload);
  auto b = tapped.Call(1, 5, "in.search", payload);
  Expect(tapped_stub.seen_payload == payload && tapped_stub.seen_method == "in.search",
         "tap passes method and payload through");
  Expect(a.status.code() == b.status.code() && a.status.message() == b.status.message() &&
             a.payload == b.payload && a.cost == b.cost,
         "tap returns status, payload and cost unchanged");
  Expect(direct.BytesSent() == tapped.BytesSent(), "tap leaves wire bytes unchanged");
  const auto& calls = tap.calls();
  Expect(calls.size() == 1 && calls[0].request_bytes == payload.size() &&
             calls[0].sim_s == 1.25e-3 && calls[0].status != 0,
         "tap records bytes, cost and status");
}

void TracingIsNeutralAndSeedsDecide() {
  for (bool ingest : {false, true}) {
    Runner plain(Tiny(ingest), 5), traced(Tiny(ingest), 5), other(Tiny(ingest), 6);
    plain.Setup();
    traced.Setup();
    other.Setup();
    traced.EnableTracing();
    for (Runner* r : {&plain, &traced, &other}) RunTiny(*r);
    const char* tag = ingest ? " (ingest)" : " (search)";
    Expect(plain.failed() == 0 && traced.failed() == 0 && other.failed() == 0,
           (std::string("all outputs match the model") + tag).c_str());
    Expect(Sims(plain) == Sims(traced),
           (std::string("tracing and tap change no simulated cost") + tag).c_str());
    Expect(plain.cluster().transport().BytesSent() == traced.cluster().transport().BytesSent(),
           (std::string("tracing and tap change no wire bytes") + tag).c_str());
    Expect(traced.spans().Count("client.search") > 0 && !traced.tap().calls().empty(),
           (std::string("traced pass records spans and calls") + tag).c_str());
    Runner again(Tiny(ingest), 5);
    again.Setup();
    RunTiny(again);
    Expect(Sims(plain) == Sims(again), (std::string("same seed, same costs") + tag).c_str());
    Expect(plain.queries().front().text != other.queries().front().text &&
               Sims(plain) != Sims(other),
           (std::string("another seed, other inputs") + tag).c_str());
  }
}

}  // namespace

int RunSelfTests() {
  OracleCatchesWrongResult();
  ReplayUsesSendTime();
  ZipfHotSetIsStable();
  TapForwardsBytes();
  TracingIsNeutralAndSeedsDecide();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
