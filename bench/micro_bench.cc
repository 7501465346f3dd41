// google-benchmark microbenchmarks for TUPELO's substrates: operator
// application, TNF encoding, state fingerprinting, heuristic evaluation,
// and successor expansion. These are per-state costs — the multipliers
// behind every "states examined" number in the figure harnesses.
//
// Two modes. Without --json=, the usual google-benchmark CLI. With
// --json=PATH (plus the shared --quick/--budget/--seed flags), a fixed
// deterministic measurement suite runs instead and writes a schema-3
// BenchReport: per-size discovery runs whose metrics carry the
// state.*/expand.* counters, each annotated with *_ns timings of the
// per-state substrates (fingerprinting, COW successor construction,
// cached and uncached expansion). The perf_smoke ctest target runs this
// mode and validates the report.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/simd/edit_distance.h"
#include "core/mapping_problem.h"
#include "core/tupelo.h"
#include "fira/executor.h"
#include "heuristics/heuristic_factory.h"
#include "heuristics/levenshtein.h"
#include "heuristics/term_vector.h"
#include "relational/tnf.h"
#include "workloads/flights.h"
#include "workloads/synthetic.h"

namespace tupelo {
namespace {

Database WideDatabase(size_t n) {
  return MakeSyntheticMatchingPair(n).source;
}

// `k` copies of the n-attribute synthetic relation under distinct names.
// Exercises the case COW is for: a successor mutates one relation and
// shares the other k-1 with its parent.
Database MultiRelationDatabase(size_t k, size_t n) {
  Database db;
  Database wide = WideDatabase(n);
  const Relation& base = *wide.relations().begin()->second;
  for (size_t i = 0; i < k; ++i) {
    Relation rel = base;
    rel.set_name("R" + std::to_string(i + 1));
    db.PutRelation(std::move(rel));
  }
  return db;
}

void BM_ApplyPromote(benchmark::State& state) {
  Database db = MakeFlightsB();
  PromoteOp op{"Prices", "Route", "Cost"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_ApplyPromote);

// Same operator with per-operator metrics attached: the executor's
// instrumented path (count + ScopedTimer + failure tracking). Compare to
// BM_ApplyPromote to bound the observability overhead; with metrics null
// (BM_ApplyPromote) the instrumented code is bypassed entirely.
void BM_ApplyPromoteWithMetrics(benchmark::State& state) {
  Database db = MakeFlightsB();
  PromoteOp op{"Prices", "Route", "Cost"};
  obs::MetricRegistry registry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db, nullptr, &registry));
  }
}
BENCHMARK(BM_ApplyPromoteWithMetrics);

void BM_ApplyDemote(benchmark::State& state) {
  Database db = MakeFlightsB();
  DemoteOp op{"Prices"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_ApplyDemote);

void BM_ApplyMerge(benchmark::State& state) {
  Database db = MakeFlightsB();
  db = ApplyOp(PromoteOp{"Prices", "Route", "Cost"}, db).value();
  db = ApplyOp(DropOp{"Prices", "Route"}, db).value();
  db = ApplyOp(DropOp{"Prices", "Cost"}, db).value();
  MergeOp op{"Prices", "Carrier"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_ApplyMerge);

void BM_ApplyRename(benchmark::State& state) {
  Database db = WideDatabase(static_cast<size_t>(state.range(0)));
  RenameAttrOp op{"R", "A1", "ZZ"};
  if (static_cast<size_t>(state.range(0)) > 9) op.from = "A01";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_ApplyRename)->Arg(4)->Arg(16)->Arg(32);

void BM_TnfEncode(benchmark::State& state) {
  Database db = WideDatabase(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeTnf(db));
  }
}
BENCHMARK(BM_TnfEncode)->Arg(4)->Arg(16)->Arg(32);

void BM_Fingerprint(benchmark::State& state) {
  Database db = WideDatabase(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Fingerprint());
  }
}
BENCHMARK(BM_Fingerprint)->Arg(4)->Arg(16)->Arg(32);

// Re-inserts the relation each iteration, so the database fingerprint is
// recomputed from the relation's cached fingerprint (the incremental
// subtract/add path). Before the incremental scheme this walked every
// tuple of every relation through a string canonicalization.
void BM_FingerprintCold(benchmark::State& state) {
  Database db = WideDatabase(static_cast<size_t>(state.range(0)));
  std::string name = db.relations().begin()->first;
  for (auto _ : state) {
    Relation copy = *db.GetRelation(name).value();
    db.PutRelation(std::move(copy));
    benchmark::DoNotOptimize(db.Fingerprint());
  }
}
BENCHMARK(BM_FingerprintCold)->Arg(4)->Arg(16)->Arg(32);

// COW successor construction. Cold: a single wide relation, which the
// successor must clone anyway — no sharing to exploit. Shared: 32
// relations of which the successor mutates one and shares 31.
void BM_SuccessorCowCold(benchmark::State& state) {
  Database db = WideDatabase(32);
  RenameAttrOp op{"R", "A01", "ZZ"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_SuccessorCowCold);

void BM_SuccessorCowShared(benchmark::State& state) {
  Database db = MultiRelationDatabase(32, 4);
  RenameAttrOp op{"R1", "A1", "ZZ"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyOp(op, db));
  }
}
BENCHMARK(BM_SuccessorCowShared);

void BM_Containment(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pair.source.Contains(pair.source));
  }
}
BENCHMARK(BM_Containment)->Arg(4)->Arg(16)->Arg(32);

void BM_HeuristicEval(benchmark::State& state) {
  HeuristicKind kind = static_cast<HeuristicKind>(state.range(0));
  SyntheticMatchingPair pair = MakeSyntheticMatchingPair(8);
  std::unique_ptr<Heuristic> h =
      MakeHeuristic(kind, pair.target, SearchAlgorithm::kRbfs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h->Estimate(pair.source));
  }
  state.SetLabel(std::string(HeuristicKindName(kind)));
}
BENCHMARK(BM_HeuristicEval)
    ->Arg(static_cast<int>(HeuristicKind::kH1))
    ->Arg(static_cast<int>(HeuristicKind::kH2))
    ->Arg(static_cast<int>(HeuristicKind::kH3))
    ->Arg(static_cast<int>(HeuristicKind::kLevenshtein))
    ->Arg(static_cast<int>(HeuristicKind::kEuclidean))
    ->Arg(static_cast<int>(HeuristicKind::kCosine));

// Strings of length n differing every 3rd character — roughly the shape
// of two TNF encodings of sibling states.
std::pair<std::string, std::string> EditPair(size_t n) {
  std::string a(n, 'a');
  std::string b = a;
  for (size_t i = 0; i < b.size(); i += 3) b[i] = 'b';
  return {std::move(a), std::move(b)};
}

void BM_Levenshtein(benchmark::State& state) {
  auto [a, b] = EditPair(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(32)->Arg(256)->Arg(1024)->Arg(4096);

// The DP oracle the tests compare EditDistance against, for the
// Myers-vs-DP speedup factor.
void BM_LevenshteinScalar(benchmark::State& state) {
  auto [a, b] = EditPair(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::EditDistanceScalar(a, b));
  }
}
BENCHMARK(BM_LevenshteinScalar)->Arg(32)->Arg(256)->Arg(1024)->Arg(4096);

// Asymmetric pair: a short pattern against a long text, the blocked-DP
// pattern-side-selection case (range(0) = pattern, range(1) = text).
void BM_LevenshteinAsym(benchmark::State& state) {
  auto [a, b] = EditPair(static_cast<size_t>(state.range(1)));
  a.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_LevenshteinAsym)->Args({64, 1024})->Args({128, 4096});

// Full distance kit over two term vectors of ~3n nonzero coordinates:
// one DotMerge, one MinSumMerge, and the cached-sum identity forms.
void BM_TermVectorMerge(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  TermVector x = TermVector::FromDatabase(pair.source);
  TermVector y = TermVector::FromDatabase(pair.target);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TermVector::EuclideanDistance(x, y));
    benchmark::DoNotOptimize(TermVector::JaccardSimilarity(x, y));
  }
}
BENCHMARK(BM_TermVectorMerge)->Arg(4)->Arg(16)->Arg(32);

// One EstimateCost per successor state over a frontier's worth of
// states (through EstimateCostBatch), miss path (caches trimmed each iteration): what a beam level
// pays per expansion with the levenshtein heuristic.
void BM_EstimateBatch(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  MappingProblem problem(pair.source, pair.target,
                         MakeHeuristic(HeuristicKind::kLevenshtein,
                                       pair.target, SearchAlgorithm::kRbfs));
  std::vector<MappingProblem::SuccessorT> successors =
      problem.Expand(pair.source);
  std::vector<const Database*> states;
  for (const auto& succ : successors) states.push_back(&succ.state);
  std::vector<int> out(states.size());
  for (auto _ : state) {
    problem.TrimCaches();
    problem.EstimateCostBatch(states, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(states.size()));
}
BENCHMARK(BM_EstimateBatch)->Arg(2)->Arg(4)->Arg(8);

// With the default config this measures the transposition-cache hit path
// (the first iteration populates it); BM_ExpandUncached disables the
// cache to measure true successor generation.
void BM_Expand(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  MappingProblem problem(
      pair.source, pair.target,
      MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.Expand(pair.source));
  }
}
BENCHMARK(BM_Expand)->Arg(2)->Arg(4)->Arg(8);

void BM_ExpandUncached(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  SuccessorConfig config;
  config.expand_cache_capacity = 0;
  MappingProblem problem(
      pair.source, pair.target,
      MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
      nullptr, {}, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.Expand(pair.source));
  }
}
BENCHMARK(BM_ExpandUncached)->Arg(2)->Arg(4)->Arg(8);

// BM_ExpandUncached with a TraceSession attached: every Expand emits an
// expand span plus one op.* span per candidate operator. Compare to
// BM_ExpandUncached to bound the tracing overhead on the hottest path;
// with trace null the emit branches are never taken.
void BM_ExpandWithTrace(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  SuccessorConfig config;
  config.expand_cache_capacity = 0;
  MappingProblem problem(
      pair.source, pair.target,
      MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
      nullptr, {}, config);
  obs::TraceSession session;
  problem.set_trace(&session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.Expand(pair.source));
  }
}
BENCHMARK(BM_ExpandWithTrace)->Arg(2)->Arg(4)->Arg(8);

// The raw cost of one trace emit (ring store + steady-clock read),
// steady state: the thread buffer is registered on the first iteration
// and ring wraparound just overwrites.
void BM_TraceEmit(benchmark::State& state) {
  obs::TraceSession session;
  for (auto _ : state) {
    session.EmitInstant(obs::TraceCategory::kSearch, "bench.tick", "i", 1);
  }
}
BENCHMARK(BM_TraceEmit);

void BM_DiscoverSyntheticRbfsH1(benchmark::State& state) {
  SyntheticMatchingPair pair =
      MakeSyntheticMatchingPair(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    TupeloOptions options;
    options.algorithm = SearchAlgorithm::kRbfs;
    options.heuristic = HeuristicKind::kH1;
    Result<TupeloResult> r =
        DiscoverMapping(pair.source, pair.target, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DiscoverSyntheticRbfsH1)->Arg(2)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// Deterministic --json mode (schema 3), for perf_smoke and BENCH_micro.

// Mean nanoseconds per call of `body` over `iters` calls.
template <typename Body>
double NanosPer(int iters, Body body) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) body();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
             .count() /
         static_cast<double>(iters);
}

int RunJsonSuite(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv, 50000);
  bench::BenchReport report("micro", args);
  bench::BenchTrace trace(args);
  std::printf("# micro_bench substrates; budget=%llu states\n",
              static_cast<unsigned long long>(args.budget));
  bench::PrintRow({"n", "fp_cold", "fp_cached", "succ_cold", "succ_shared",
                   "exp_uncached", "exp_cached", "states"});

  report.BeginPanel("substrates");
  std::vector<size_t> sizes = {2, 4, 8};
  if (args.quick) sizes = {2, 4};
  const int iters = args.quick ? 2000 : 20000;
  const int expand_iters = args.quick ? 50 : 200;

  // SIMD kernel timings (schema 8), size-independent — measured once and
  // stamped on every run so per-run rows stay self-contained. The host's
  // ISA level lands in the report's simd_dispatch root field.
  const auto [edit_short_a, edit_short_b] = EditPair(64);
  const auto [edit_long_a, edit_long_b] = EditPair(1024);
  double edit_short = NanosPer(iters, [&, &a = edit_short_a,
                                       &b = edit_short_b] {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  });
  double edit_long = NanosPer(iters / 10 + 1, [&, &a = edit_long_a,
                                               &b = edit_long_b] {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  });
  const std::string hash_input(64, 'k');
  double term_hash = NanosPer(iters, [&] {
    benchmark::DoNotOptimize(HashBytes64(hash_input, 0));
  });
  SyntheticMatchingPair merge_pair = MakeSyntheticMatchingPair(16);
  TermVector merge_x = TermVector::FromDatabase(merge_pair.source);
  TermVector merge_y = TermVector::FromDatabase(merge_pair.target);
  double term_merge = NanosPer(iters, [&] {
    benchmark::DoNotOptimize(TermVector::EuclideanDistance(merge_x, merge_y));
  });
  MappingProblem batch_problem(
      merge_pair.source, merge_pair.target,
      MakeHeuristic(HeuristicKind::kLevenshtein, merge_pair.target,
                    SearchAlgorithm::kRbfs));
  std::vector<MappingProblem::SuccessorT> batch_succ =
      batch_problem.Expand(merge_pair.source);
  std::vector<const Database*> batch_states;
  for (const auto& succ : batch_succ) batch_states.push_back(&succ.state);
  std::vector<int> batch_out(batch_states.size());
  double estimate_batch = NanosPer(expand_iters, [&] {
    batch_problem.TrimCaches();
    batch_problem.EstimateCostBatch(batch_states, batch_out);
    benchmark::DoNotOptimize(batch_out.data());
  });

  for (size_t n : sizes) {
    SyntheticMatchingPair pair = MakeSyntheticMatchingPair(n);

    Database fp_db = pair.source;
    const std::string rname = fp_db.relations().begin()->first;
    double fp_cold = NanosPer(iters, [&] {
      Relation copy = *fp_db.GetRelation(rname).value();
      fp_db.PutRelation(std::move(copy));
      benchmark::DoNotOptimize(fp_db.Fingerprint());
    });
    double fp_cached = NanosPer(iters, [&] {
      benchmark::DoNotOptimize(fp_db.Fingerprint());
    });

    Database wide = WideDatabase(32);
    RenameAttrOp cold_op{"R", "A01", "ZZ"};
    double succ_cold = NanosPer(iters, [&] {
      benchmark::DoNotOptimize(ApplyOp(cold_op, wide));
    });
    Database multi = MultiRelationDatabase(32, 4);
    RenameAttrOp shared_op{"R1", "A1", "ZZ"};
    double succ_shared = NanosPer(iters, [&] {
      benchmark::DoNotOptimize(ApplyOp(shared_op, multi));
    });

    SuccessorConfig uncached_config;
    uncached_config.expand_cache_capacity = 0;
    MappingProblem uncached(
        pair.source, pair.target,
        MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
        nullptr, {}, uncached_config);
    double expand_uncached = NanosPer(expand_iters, [&] {
      benchmark::DoNotOptimize(uncached.Expand(pair.source));
    });
    MappingProblem cached(
        pair.source, pair.target,
        MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs));
    double expand_cached = NanosPer(expand_iters, [&] {
      benchmark::DoNotOptimize(cached.Expand(pair.source));
    });

    // Cold set-based estimates: Estimate called directly (no estimate
    // cache) on each fresh successor of the source, per evaluation.
    std::vector<MappingProblem::SuccessorT> eval_succ =
        uncached.Expand(pair.source);
    auto eval_ns = [&](HeuristicKind kind) {
      std::unique_ptr<Heuristic> h =
          MakeHeuristic(kind, pair.target, SearchAlgorithm::kRbfs);
      return NanosPer(expand_iters, [&] {
               for (const auto& succ : eval_succ) {
                 benchmark::DoNotOptimize(h->Estimate(succ.state));
               }
             }) /
             static_cast<double>(eval_succ.size());
    };
    double h1_eval = eval_ns(HeuristicKind::kH1);
    double h3_eval = eval_ns(HeuristicKind::kH3);

    // Tracing overhead on the same uncached-expand path, plus the raw
    // per-emit cost: compare expand_traced_ns to expand_uncached_ns.
    obs::TraceSession traced_session;
    MappingProblem traced(
        pair.source, pair.target,
        MakeHeuristic(HeuristicKind::kH1, pair.target, SearchAlgorithm::kRbfs),
        nullptr, {}, uncached_config);
    traced.set_trace(&traced_session);
    double expand_traced = NanosPer(expand_iters, [&] {
      benchmark::DoNotOptimize(traced.Expand(pair.source));
    });
    double trace_emit = NanosPer(iters, [&] {
      traced_session.EmitInstant(obs::TraceCategory::kSearch, "bench.tick",
                                 "i", 1);
    });

    // One real discovery run so the report's metrics carry the live
    // state.*/expand.* counters alongside the substrate timings.
    TupeloOptions options;
    options.algorithm = args.algo.empty()
                            ? SearchAlgorithm::kRbfs
                            : ParseSearchAlgorithm(args.algo).value_or(
                                  SearchAlgorithm::kRbfs);
    options.heuristic = HeuristicKind::kH1;
    options.threads = args.threads;
    options.limits.max_states = args.budget;
    options.limits.max_depth = static_cast<int>(n) + 4;
    trace.Apply(options);
    obs::MetricRegistry registry;
    bench::RunResult r = bench::Measure(pair.source, pair.target, options,
                                        nullptr, {},
                                        report.enabled() ? &registry : nullptr);

    char buf[32];
    auto ns = [&buf](double v) {
      std::snprintf(buf, sizeof(buf), "%.1f", v);
      return std::string(buf);
    };
    bench::PrintRow({std::to_string(n), ns(fp_cold), ns(fp_cached),
                     ns(succ_cold), ns(succ_shared), ns(expand_uncached),
                     ns(expand_cached), bench::FormatStates(r, args.budget)});

    if (report.enabled()) {
      obs::JsonValue run = bench::BenchReport::MakeRun(r);
      run["n"] = static_cast<uint64_t>(n);
      run["heuristic"] = std::string("h1");
      run["fingerprint_cold_ns"] = fp_cold;
      run["fingerprint_cached_ns"] = fp_cached;
      run["successor_cold_ns"] = succ_cold;
      run["successor_shared_ns"] = succ_shared;
      run["expand_uncached_ns"] = expand_uncached;
      run["expand_cached_ns"] = expand_cached;
      run["expand_traced_ns"] = expand_traced;
      run["trace_emit_ns"] = trace_emit;
      run["edit_short_ns"] = edit_short;
      run["edit_long_ns"] = edit_long;
      run["term_hash_ns"] = term_hash;
      run["term_merge_ns"] = term_merge;
      run["estimate_batch_ns"] = estimate_batch;
      run["h1_eval_ns"] = h1_eval;
      run["h3_eval_ns"] = h3_eval;
      run["metrics"] = registry.ToJson();
      trace.AnnotateRun(run);
      report.AddRun(std::move(run));
    }
  }
  bool ok = report.Write();
  ok = trace.Write() && ok;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tupelo

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).rfind("--json=", 0) == 0) {
      return tupelo::RunJsonSuite(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
