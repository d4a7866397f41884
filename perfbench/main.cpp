//===-- perfbench/main.cpp - The miniself benchmark -----------------------===//
//
// Part of miniself, a reproduction of Chambers & Ungar, PLDI '90.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark for the whole system. Four workloads, each a closed loop
/// (a caller sends its next op only after the previous answer arrived):
///
///   steady  every registered program (allBenchmarks(): E1, E16, E17) on
///           warm new-SELF VMs, plus the five E16 suites on warm BBV VMs;
///           one op is one run of one program, in seeded interleaved order
///   cold    the same programs under new SELF, each op on a fresh VM, from
///           construction to the first correct answer
///   storm   kStormThreads mutator threads on one SharedRuntime, each
///           creating a tiered, background-compiling isolate, serving a
///           seeded number of E15 sessions, and destroying it
///   oldgen  a tenuring churn kernel on one warm VM that holds E18's
///           retained tree, sized so the default old-space threshold
///           forces repeated full collections
///
/// Every answer is checked against an independent oracle: the program's
/// native C++ twin, the E15 script's expected value, or the kernel's closed
/// form. The seed drives every draw (op order, session counts and scripts,
/// kernel inputs); the programs see only the drawn inputs.
///
/// Usage:
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// With --trace 0 the last stdout line is a JSON object carrying the
/// end-to-end metrics; with --trace 1 it carries the per-layer metrics.
/// The traced run records a span around every call into the public API
/// (VirtualMachine construction, load and evaluation; isolate creation and
/// destruction; Parser::parseTopLevel), keeps the spans in memory and
/// writes them as Chrome trace-event JSON to FILE at exit. Compile and GC
/// time inside an evaluation are derived from telemetry deltas as child
/// time, so the self time of an evaluation is interpreter time. A seeded
/// half of the traced run's ops is left untraced; the difference between
/// the two halves is the reported tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "stats.h"

#include "suites.h"
#include "workloads.h"

#include "driver/isolate.h"
#include "driver/vm.h"
#include "interp/compile_service.h"
#include "parser/parser.h"
#include "runtime/shared_tier.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

using namespace mself;
using namespace mself::bench;
using namespace mself::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Each run sets its workload up this many times and reports the median,
/// so work moved into set-up shows in setup_s without one slow start
/// deciding it.
constexpr int kSetupReps = 15;
/// Steady builds 35 warm VMs per set-up, a few seconds of compilation.
constexpr int kSteadySetupReps = 3;

/// Whole passes over the programs that steady and cold time at the least,
/// and oldgen's least ops: enough that the tail percentile sits on the same
/// rung of its ladder (p99 for steady, p90 for cold and oldgen) in every
/// run, even when the machine is slow; cold's median falls between two
/// programs' ops, so it gets six samples of each. The timed phase runs for
/// --seconds or until these are done, whichever is later.
constexpr int kMinSteadyPasses = 40, kMinColdPasses = 6, kMinOldgenOps = 150;

/// The host probe's median round (see HostProbe) on the reference host, a
/// 4-vCPU Xeon, GCC 12, RelWithDebInfo. It fixes only the scale of the
/// reported times: changing it rescales every run alike.
constexpr double kReferenceRoundMs = 2.0;

/// Storm mutator threads. With the compile worker this keeps the storm on
/// three of the four cores the benchmark is sized for.
constexpr int kStormThreads = 2;

//===----------------------------------------------------------------------===//
// Options and seeded draws
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

bool parseOptions(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value after " + A;
      return false;
    }
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (!(O.Seconds > 0 && O.Seconds <= 600)) {
        Err = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (A == "--trace") {
      if (V != "0" && V != "1") {
        Err = "--trace takes 0 or 1";
        return false;
      }
      O.Trace = V == "1";
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      Err = "unknown option " + A;
      return false;
    }
    if (End && *End) {
      Err = "not a number: " + V;
      return false;
    }
  }
  if (O.Workload.empty()) {
    Err = "--workload is required";
    return false;
  }
  return true;
}

/// splitmix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// A seeded one-in-N choice of ops: which ops the traced run traces (half
/// of them; storm: one session in kStormTraceEvery), and which storm
/// session latencies are kept. It draws from a generator of its own, so
/// the chosen ops neither follow a period of the workload (a collection
/// every other op) nor change the seeded inputs. Steady and cold also
/// trace each program's first op.
class OneInChoice {
public:
  OneInChoice(bool On, uint64_t Seed, size_t OneIn = 2)
      : On(On), OneIn(OneIn), Draw(Seed ^ 0x7261636554726163ull) {}
  bool next() { return On && Draw.below(OneIn) == 0; }

private:
  bool On;
  size_t OneIn;
  Rng Draw;
};

//===----------------------------------------------------------------------===//
// The report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  bool InResult = true;
};

class Report {
public:
  void endToEnd(const std::string &N, double V, const std::string &U) {
    EndToEnd.push_back({N, V, U});
  }
  /// A per-layer metric. \p InResult false keeps it out of the result
  /// line: a time that reads 0 on every run of a workload whose ops never
  /// enter the layer is printed, not reported as a measurement.
  void layer(const std::string &N, double V, const std::string &U,
             bool InResult = true) {
    Layers.push_back({N, V, U, InResult});
  }
  /// A human-readable line printed before the metrics.
  void note(const std::string &S) { Notes.push_back(S); }

  void attempt(uint64_t N = 1) { Attempted += N; }
  /// \p N failed ops (a wrong answer or an error), described by \p What;
  /// they still count as attempted.
  void fail(const std::string &What, uint64_t N = 1) {
    Failed += N;
    problem(What);
  }
  /// A self-check that is not an op: exact counts that did not repeat,
  /// compilation inside the timed phase, an oracle that disagreed.
  void checkFailed(const std::string &What) {
    ChecksOk = false;
    problem(What);
  }

  /// Prints notes, every metric with its unit, and the result line.
  void print(bool Trace) const {
    for (const std::string &S : Problems)
      printf("problem: %s\n", S.c_str());
    for (const std::string &S : Notes)
      printf("%s\n", S.c_str());
    printf("error_rate = %.6g (%" PRIu64 " failed of %" PRIu64 " ops)\n",
           errorRate(Failed, Attempted), Failed, Attempted);
    for (const Metric &M : EndToEnd)
      printf("end_to_end %-24s = %.9g %s\n", M.Name.c_str(), M.Value,
             M.Unit.c_str());
    for (const Metric &M : Layers)
      printf("per_layer  %-32s = %.9g %s%s\n", M.Name.c_str(), M.Value,
             M.Unit.c_str(), M.InResult ? "" : " (printed only)");
    std::vector<Metric> Out;
    for (const Metric &M : Trace ? Layers : EndToEnd)
      if (M.InResult)
        Out.push_back(M);
    printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
           ", \"metrics\": {",
           Failed == 0 && ChecksOk && Attempted > 0 ? "true" : "false",
           Attempted, Failed);
    for (size_t I = 0; I < Out.size(); ++I)
      printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
             Out[I].Name.c_str(), std::isfinite(Out[I].Value) ? Out[I].Value : 0,
             Out[I].Unit.c_str());
    printf("}}\n");
  }

private:
  void problem(const std::string &What) {
    if (Problems.size() < 20)
      Problems.push_back(What);
  }

  uint64_t Attempted = 0, Failed = 0;
  bool ChecksOk = true;
  std::vector<std::string> Problems, Notes;
  std::vector<Metric> EndToEnd, Layers;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One traced call. Compile and GC time inside it are child time derived
/// from telemetry deltas, not spans of their own.
struct Span {
  const char *Name;
  int Tid;
  int Parent; ///< Index into the same tracer, or -1.
  int64_t Op; ///< Op the span belongs to, or -1 for set-up.
  double StartUs, DurUs;
  double CompileMs = 0, GcMs = 0;
};

/// In-memory span log; one per thread, merged at the end. A disabled
/// tracer records nothing, so untraced code paths cost one branch.
class Tracer {
public:
  Tracer(bool On, Clock::time_point Origin, int Tid)
      : On(On), Origin(Origin), Tid(Tid) {}

  bool on() const { return On; }

  int begin(const char *Name, int Parent = -1, int64_t Op = -1) {
    if (!On)
      return -1;
    Spans.push_back({Name, Tid, Parent, Op, now(), 0});
    return static_cast<int>(Spans.size() - 1);
  }
  void end(int Idx, double CompileMs = 0, double GcMs = 0) {
    if (Idx < 0)
      return;
    Span &S = Spans[static_cast<size_t>(Idx)];
    S.DurUs = now() - S.StartUs;
    S.CompileMs = CompileMs;
    S.GcMs = GcMs;
  }

  /// Appends \p Other's spans, rebasing their parent indices.
  void absorb(Tracer &&Other) {
    int Base = static_cast<int>(Spans.size());
    for (Span S : Other.Spans) {
      if (S.Parent >= 0)
        S.Parent += Base;
      Spans.push_back(S);
    }
    Other.Spans.clear();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Median duration of the spans named \p Name, in ms (0 if none).
  double medianMs(const char *Name) const {
    std::vector<double> D;
    for (const Span &S : Spans)
      if (!std::strcmp(S.Name, Name))
        D.push_back(S.DurUs / 1e3);
    return median(D);
  }

  /// Writes the spans as Chrome trace-event JSON. \returns false on I/O
  /// failure.
  bool write(const std::string &Path) const {
    FILE *F = fopen(Path.c_str(), "w");
    if (!F)
      return false;
    fprintf(F, "{\"traceEvents\": [");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      fprintf(F,
              "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
              "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %" PRId64
              ", \"parent\": %d, \"compile_ms\": %.6f, \"gc_ms\": %.6f}}",
              I ? "," : "", S.Name, S.Tid, S.StartUs, S.DurUs, S.Op, S.Parent,
              S.CompileMs, S.GcMs);
    }
    fprintf(F, "\n]}\n");
    return fclose(F) == 0;
  }

private:
  double now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
        .count();
  }

  bool On;
  Clock::time_point Origin;
  int Tid;
  std::vector<Span> Spans;
};

/// Self time per span name: duration minus direct child spans minus the
/// derived compile and GC child time.
void noteSelfTimes(const std::vector<Span> &Spans, Report &R) {
  struct Row {
    int Calls = 0;
    double TotalMs = 0, SelfMs = 0;
  };
  std::map<std::string, Row> Rows;
  std::vector<double> ChildMs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[static_cast<size_t>(S.Parent)] += S.DurUs / 1e3;
  double CompileMs = 0, GcMs = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Row &Rw = Rows[S.Name];
    ++Rw.Calls;
    Rw.TotalMs += S.DurUs / 1e3;
    Rw.SelfMs += S.DurUs / 1e3 - ChildMs[I] - S.CompileMs - S.GcMs;
    CompileMs += S.CompileMs;
    GcMs += S.GcMs;
  }
  char Buf[256];
  R.note("trace: layer self time (span minus child spans minus derived "
         "compile and GC time)");
  for (const auto &[Name, Rw] : Rows) {
    snprintf(Buf, sizeof(Buf),
             "trace:   %-22s calls %7d  total %10.3f ms  self %10.3f ms",
             Name.c_str(), Rw.Calls, Rw.TotalMs, Rw.SelfMs);
    R.note(Buf);
  }
  snprintf(Buf, sizeof(Buf),
           "trace:   %-22s total %10.3f ms (derived child of evaluation)",
           "compiler", CompileMs);
  R.note(Buf);
  snprintf(Buf, sizeof(Buf),
           "trace:   %-22s total %10.3f ms (derived child of evaluation)",
           "heap.gc", GcMs);
  R.note(Buf);
}

//===----------------------------------------------------------------------===//
// Layer counters from telemetry
//===----------------------------------------------------------------------===//

/// Named sums of layer counters and times.
using Sums = std::map<std::string, double>;

double get(const Sums &S, const std::string &K) {
  auto It = S.find(K);
  return It == S.end() ? 0 : It->second;
}

/// Each program's sums divided by its own \p CountKey (ops or VMs), then
/// averaged over the programs that have any. Averaging per program keeps
/// exact counts exact whatever mix of programs the timed phase reached.
Sums meanPerProgram(const std::vector<Sums> &PerProgram, const char *CountKey) {
  Sums Out;
  double Programs = 0;
  for (const Sums &P : PerProgram) {
    double N = get(P, CountKey);
    if (N <= 0)
      continue;
    ++Programs;
    for (const auto &[K, V] : P)
      Out[K] += V / N;
  }
  for (auto &[K, V] : Out)
    V /= Programs;
  return Out;
}

/// Adds the telemetry deltas \p A -> \p B of one VM to \p S.
void addDelta(Sums &S, const VmTelemetry &A, const VmTelemetry &B) {
  auto D = [&S](const char *K, double Before, double After) {
    S[K] += After - Before;
  };
  D("instructions", A.Exec.Instructions, B.Exec.Instructions);
  D("type_tests", A.Exec.TypeTests, B.Exec.TypeTests);
  D("sends", A.Exec.Sends, B.Exec.Sends);
  D("pic_hits", A.Dispatch.PicHits, B.Dispatch.PicHits);
  D("glc_hits", A.Dispatch.GlcHits, B.Dispatch.GlcHits);
  D("glc_misses", A.Dispatch.GlcMisses, B.Dispatch.GlcMisses);
  D("full_lookups", A.Dispatch.FullLookups, B.Dispatch.FullLookups);
  D("sends_mega", A.Dispatch.SendsMega, B.Dispatch.SendsMega);
  D("quick_sends", A.Dispatch.QuickSends, B.Dispatch.QuickSends);
  D("quickenings", A.Dispatch.Quickenings, B.Dispatch.Quickenings);
  D("dequickenings", A.Dispatch.Dequickenings, B.Dispatch.Dequickenings);
  D("arena_allocs", A.Escape.ArenaEnvAllocs + A.Escape.ArenaBlockAllocs,
    B.Escape.ArenaEnvAllocs + B.Escape.ArenaBlockAllocs);
  D("evacuations", A.Escape.ArenaEvacuations, B.Escape.ArenaEvacuations);
  D("demotions", A.Escape.ArenaDemotedAllocs, B.Escape.ArenaDemotedAllocs);
  D("bbv_guard_slow", A.Bbv.GuardSlow, B.Bbv.GuardSlow);
  D("alloc_bytes", A.Gc.BytesAllocatedNursery + A.Gc.BytesAllocatedOld,
    B.Gc.BytesAllocatedNursery + B.Gc.BytesAllocatedOld);
  D("scavenges", A.Gc.Scavenges, B.Gc.Scavenges);
  D("scavenge_pause_ms", A.Gc.ScavengePauses.TotalSeconds * 1e3,
    B.Gc.ScavengePauses.TotalSeconds * 1e3);
  D("promoted_bytes", A.Gc.BytesPromoted, B.Gc.BytesPromoted);
  D("full_collections", A.Gc.FullCollections, B.Gc.FullCollections);
  D("full_pause_ms", A.Gc.FullPauses.TotalSeconds * 1e3,
    B.Gc.FullPauses.TotalSeconds * 1e3);
  D("barrier_hits", A.Gc.BarrierHits, B.Gc.BarrierHits);
  D("baseline_compiles", A.Tier.BaselineCompiles, B.Tier.BaselineCompiles);
  D("promotions", A.Tier.Promotions, B.Tier.Promotions);
  D("bg_enqueued", A.Tier.BackgroundEnqueued, B.Tier.BackgroundEnqueued);
  D("bg_installed", A.Tier.BackgroundInstalled, B.Tier.BackgroundInstalled);
  D("bg_cancelled", A.Tier.BackgroundCancelled, B.Tier.BackgroundCancelled);
  D("sync_fallbacks", A.Tier.BackgroundSyncFallbacks,
    B.Tier.BackgroundSyncFallbacks);
  D("mutator_stall_ms", A.Tier.MutatorStallSeconds * 1e3,
    B.Tier.MutatorStallSeconds * 1e3);
  D("bg_compile_ms", A.Tier.BackgroundCompileSeconds * 1e3,
    B.Tier.BackgroundCompileSeconds * 1e3);
  D("shared_hits", A.Tier.SharedHits, B.Tier.SharedHits);
  D("shared_publishes", A.Tier.SharedPublishes, B.Tier.SharedPublishes);
  D("rehydrate_failures", A.Tier.SharedRehydrateFailures,
    B.Tier.SharedRehydrateFailures);
  D("local_fallbacks", A.Tier.SharedLocalFallbacks,
    B.Tier.SharedLocalFallbacks);
}

/// What the code cache holds: the compiler's own counts and CPU times
/// summed over every compiled function, and the code size. Code an isolate
/// rehydrated from the shared tier carries its producer's counts and times.
struct CodeCensus {
  uint64_t Functions = 0, SendsInlined = 0, NodesCopied = 0;
  uint64_t LoopIterations = 0, TypeTestsEmitted = 0;
  uint64_t SuperFused = 0, MovesElided = 0;
  uint64_t BbvVersions = 0, BbvGenericVersions = 0, BbvTypeTestsElided = 0;
  uint64_t CodeBytes = 0;
  double CompileMs = 0, AnalyzeMs = 0, SplitMs = 0, LowerMs = 0, EmitMs = 0;

  static CodeCensus of(VirtualMachine &VM) {
    CodeCensus C;
    VM.code().forEach([&C](const CompiledFunction &F) {
      ++C.Functions;
      C.SendsInlined += static_cast<uint64_t>(F.Stats.SendsInlined);
      C.NodesCopied += static_cast<uint64_t>(F.Stats.NodesCopied);
      C.LoopIterations += static_cast<uint64_t>(F.Stats.LoopIterations);
      C.TypeTestsEmitted += static_cast<uint64_t>(F.Stats.TypeTestsEmitted);
      C.SuperFused += static_cast<uint64_t>(F.Stats.SuperFused);
      C.MovesElided += static_cast<uint64_t>(F.Stats.MovesElided);
      C.BbvVersions += static_cast<uint64_t>(F.Stats.BbvVersions);
      C.BbvGenericVersions += static_cast<uint64_t>(F.Stats.BbvGenericVersions);
      C.BbvTypeTestsElided += static_cast<uint64_t>(F.Stats.BbvTypeTestsElided);
      C.CompileMs += F.Stats.Seconds * 1e3;
      C.AnalyzeMs += F.Stats.AnalyzeSeconds * 1e3;
      C.SplitMs += F.Stats.SplitSeconds * 1e3;
      C.LowerMs += F.Stats.LowerSeconds * 1e3;
      C.EmitMs += F.Stats.EmitSeconds * 1e3;
    });
    C.CodeBytes = VM.code().totalCodeBytes();
    return C;
  }

  /// The deterministic part, for the exact-repeat self-check.
  bool sameCounts(const CodeCensus &O) const {
    return Functions == O.Functions && SendsInlined == O.SendsInlined &&
           NodesCopied == O.NodesCopied && LoopIterations == O.LoopIterations &&
           TypeTestsEmitted == O.TypeTestsEmitted &&
           SuperFused == O.SuperFused && MovesElided == O.MovesElided &&
           BbvVersions == O.BbvVersions &&
           BbvGenericVersions == O.BbvGenericVersions &&
           BbvTypeTestsElided == O.BbvTypeTestsElided &&
           CodeBytes == O.CodeBytes;
  }

  void addTo(Sums &S) const {
    S["functions"] += double(Functions);
    S["sends_inlined"] += double(SendsInlined);
    S["nodes_copied"] += double(NodesCopied);
    S["loop_iterations"] += double(LoopIterations);
    S["type_tests_emitted"] += double(TypeTestsEmitted);
    S["super_fused"] += double(SuperFused);
    S["moves_elided"] += double(MovesElided);
    S["bbv_versions"] += double(BbvVersions);
    S["bbv_generic_versions"] += double(BbvGenericVersions);
    S["bbv_type_tests_elided"] += double(BbvTypeTestsElided);
    S["compile_ms"] += CompileMs;
    S["analyze_ms"] += AnalyzeMs;
    S["split_ms"] += SplitMs;
    S["lower_ms"] += LowerMs;
    S["emit_ms"] += EmitMs;
    S["vms"] += 1;
  }
};

/// Cheap counters read around every op, traced or not.
struct Probe {
  uint64_t Instructions = 0, TypeTests = 0;
  double CompileSeconds = 0;
  double GcPauseSeconds = 0, GcMaxPauseSeconds = 0;

  static Probe of(VirtualMachine &VM) {
    Probe P;
    const ExecCounters &C = VM.interp().counters();
    P.Instructions = C.Instructions;
    P.TypeTests = C.TypeTests;
    P.CompileSeconds = VM.code().totalCompileSeconds();
    const GcStats &G = VM.heap().stats();
    P.GcPauseSeconds = G.totalPauseSeconds();
    P.GcMaxPauseSeconds = G.maxPauseSeconds();
    return P;
  }
};

/// Parses \p Source on a scratch program and interner inside a
/// `parser.parse` span: the parser layer, timed from outside. Only the
/// traced run does this; the VM parses the same source again when it
/// loads it.
void traceParse(Tracer &T, Sums &S, const std::string &Source, int Parent,
                int64_t Op) {
  if (!T.on())
    return;
  ast::Program Scratch;
  StringInterner Interner;
  Parser P(Scratch, Interner);
  Clock::time_point T0 = Clock::now();
  int Sp = T.begin("parser.parse", Parent, Op);
  P.parseTopLevel(Source); // The VM's own load reports parse errors.
  T.end(Sp);
  S["parse_ms"] += msBetween(T0, Clock::now());
  S["parse_bytes"] += double(Source.size());
  S["parse_calls"] += 1;
  S["interner_lookups"] += double(Interner.lookups());
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// The resident set now, in MB; 0 where /proc/self/statm cannot be read.
double currentRssMb() {
  FILE *F = fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  long Size = 0, Resident = 0;
  if (fscanf(F, "%ld %ld", &Size, &Resident) != 2)
    Resident = 0;
  fclose(F);
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string fmt(const char *Format, double V) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), Format, V);
  return Buf;
}

/// Ops answered correctly: the untraced and the traced samples.
double answered(const std::vector<std::vector<double>> &A,
                const std::vector<std::vector<double>> &B) {
  size_t N = 0;
  for (const auto *V : {&A, &B})
    for (const std::vector<double> &P : *V)
      N += P.size();
  return double(N);
}

double sum(const std::vector<std::vector<double>> &PerProgram) {
  double S = 0;
  for (const std::vector<double> &P : PerProgram)
    for (double Ms : P)
      S += Ms;
  return S;
}

/// The timing metrics every workload shares, over the op times of
/// \p PerProgram: throughput (\p Ops answered over \p TimedSeconds),
/// median, tail (with the percentile it sits at), and geomean over
/// programs of each program's median.
struct OpTimes {
  double OpsPerS = 0, P50Ms = 0, GeomeanMs = 0;
  Tail TailMs;

  OpTimes(const std::vector<std::vector<double>> &PerProgram, double Ops,
          double TimedSeconds) {
    std::vector<double> All, Medians;
    for (const std::vector<double> &P : PerProgram) {
      All.insert(All.end(), P.begin(), P.end());
      if (!P.empty())
        Medians.push_back(median(P));
    }
    OpsPerS = TimedSeconds > 0 ? Ops / TimedSeconds : 0;
    P50Ms = median(All);
    GeomeanMs = geomean(Medians);
    TailMs = tailPercentile(All);
  }
};

/// Adds the shared timing metrics over \p ScaledMs, the op times on the
/// reference host's clock (see HostProbe), and notes each program's median
/// and the four metrics as measured (\p RawMs). Time between the ops is
/// scaled as the ops were on average.
void reportOpTimes(Report &R, const std::vector<std::string> &Labels,
                   const std::vector<std::vector<double>> &RawMs,
                   const std::vector<std::vector<double>> &ScaledMs,
                   double Ops, double TimedSeconds) {
  for (size_t I = 0; I < RawMs.size(); ++I) {
    if (RawMs[I].empty())
      continue;
    char Buf[160];
    snprintf(Buf, sizeof(Buf), "program %-28s ops %8zu  median %12.6f ms",
             Labels[I].c_str(), RawMs[I].size(), median(RawMs[I]));
    R.note(Buf);
  }
  double Raw = sum(RawMs);
  OpTimes M(RawMs, Ops, TimedSeconds);
  OpTimes T(ScaledMs, Ops,
            Raw > 0 ? TimedSeconds * sum(ScaledMs) / Raw : TimedSeconds);
  R.note("op_tail_ms is p" + fmt("%g", T.TailMs.Percentile) + " over " +
         std::to_string(T.TailMs.Samples) + " ops, " +
         std::to_string(T.TailMs.Beyond) + " beyond it");
  R.note("as measured: ops_per_s " + fmt("%.6g", M.OpsPerS) +
         ", op_p50_ms " + fmt("%.6g", M.P50Ms) + ", op_tail_ms " +
         fmt("%.6g", M.TailMs.Value) + ", geomean_op_ms " +
         fmt("%.6g", M.GeomeanMs));
  R.endToEnd("ops_per_s", T.OpsPerS, "1/s");
  R.endToEnd("op_p50_ms", T.P50Ms, "ms");
  R.endToEnd("op_tail_ms", T.TailMs.Value, "ms");
  R.endToEnd("geomean_op_ms", T.GeomeanMs, "ms");
}

/// A native twin timed in short batches spread over the timed phase, so
/// that pct_of_c compares native and miniself time taken under the same
/// machine conditions rather than a whole run against one instant.
class NativeSampler {
public:
  /// Calibrates the batch size so that one batch takes at least kBatchMs.
  explicit NativeSampler(std::function<int64_t()> Fn) : Fn(std::move(Fn)) {
    while (timeBatch() < kBatchMs && Reps < (1 << 24))
      Reps *= 2;
  }

  /// Times one batch. \returns its wall time in ms, which the caller
  /// leaves out of its timed phase.
  double sample() {
    double Ms = timeBatch();
    PerCallMs.push_back(Ms / Reps);
    return Ms;
  }

  double medianMs() const { return median(PerCallMs); }

  /// Takes over the samples \p Other timed, on another thread.
  void absorb(const NativeSampler &Other) {
    PerCallMs.insert(PerCallMs.end(), Other.PerCallMs.begin(),
                     Other.PerCallMs.end());
  }

private:
  static constexpr double kBatchMs = 0.25;

  double timeBatch() {
    volatile int64_t Sink = 0;
    Clock::time_point T0 = Clock::now();
    for (int I = 0; I < Reps; ++I)
      Sink = Sink + Fn();
    return msBetween(T0, Clock::now());
  }

  std::function<int64_t()> Fn;
  int Reps = 1;
  std::vector<double> PerCallMs;
};

/// pct_of_c: geomean over the programs with a sampler of native time over
/// the median miniself op time, in percent.
double pctOfC(const std::vector<std::unique_ptr<NativeSampler>> &Samplers,
              const std::vector<std::vector<double>> &OpMs) {
  std::vector<double> Ratios;
  for (size_t I = 0; I < Samplers.size(); ++I)
    if (Samplers[I] && !OpMs[I].empty())
      Ratios.push_back(Samplers[I]->medianMs() / median(OpMs[I]));
  return geomean(Ratios) * 100;
}

/// The host's speed during a timed phase. A shared host's speed drifts by a
/// third and more, in bursts of a few hundred ms and over minutes, as its
/// other tenants come and go; raw times of one build then differ between
/// runs by more than a regression worth catching. The probe runs one round
/// of every registered program's native twin (fixed C++ code that no
/// change to miniself touches) whenever kEveryMs have passed, all through
/// the timed phase, and puts each op on the reference host's clock: its
/// time times the reference round over the median round run near it.
class HostProbe {
public:
  /// Runs a round when kEveryMs have passed since the last. \returns its
  /// wall time in ms (0 when none ran), which the caller leaves out of its
  /// timed phase.
  double tick() {
    if (!Rounds.empty() &&
        msBetween(Rounds.back().End, Clock::now()) < kEveryMs)
      return 0;
    return round();
  }

  /// Runs a round now. \returns its wall time in ms.
  double round() {
    Clock::time_point T0 = Clock::now();
    volatile int64_t Sink = 0;
    for (const BenchmarkDef &B : allBenchmarks())
      Sink = Sink + B.Native();
    Clock::time_point T1 = Clock::now();
    Rounds.push_back({T1, msBetween(T0, T1)});
    return Rounds.back().Ms;
  }

  /// Records an untraced op of program \p Program that took \p Ms and
  /// ended at \p End.
  void op(size_t Program, double Ms, Clock::time_point End) {
    Ops.push_back({Program, Ms, End});
  }

  /// The recorded ops' times per program, each times the reference round
  /// over the median of the rounds from kWindowMs before the op began to
  /// kWindowMs after it ended: those saw the host as the op did.
  std::vector<std::vector<double>> scaledOps(size_t Programs) const {
    using Ms = std::chrono::duration<double, std::milli>;
    std::vector<std::vector<double>> Out(Programs);
    std::vector<double> Near;
    for (const Op &O : Ops) {
      auto From = O.End - std::chrono::duration_cast<Clock::duration>(
                              Ms(O.Ms + kWindowMs));
      auto To = O.End + std::chrono::duration_cast<Clock::duration>(
                            Ms(kWindowMs));
      Near.clear();
      auto It = std::lower_bound(
          Rounds.begin(), Rounds.end(), From,
          [](const Round &Rd, Clock::time_point T) { return Rd.End < T; });
      for (; It != Rounds.end() && It->End <= To; ++It)
        Near.push_back(It->Ms);
      Out[O.Program].push_back(
          O.Ms * (Near.empty() ? scale()
                               : hostScale(kReferenceRoundMs, median(Near))));
    }
    return Out;
  }

  /// Takes over the rounds \p Other ran, on another thread, for scale().
  void absorbRounds(const HostProbe &Other) {
    Rounds.insert(Rounds.end(), Other.Rounds.begin(), Other.Rounds.end());
  }

  /// The reference round over the median round.
  double scale() const { return hostScale(kReferenceRoundMs, medianMs()); }

  /// Notes the rounds and the scale they give.
  void report(Report &R) const {
    R.note("host probe: " + std::to_string(Rounds.size()) +
           " rounds, median " + fmt("%.6f", medianMs()) + " ms, reference " +
           fmt("%.6f", kReferenceRoundMs) + " ms, scale " +
           fmt("%.6f", scale()));
  }

private:
  static constexpr double kEveryMs = 25, kWindowMs = 250;

  struct Round {
    Clock::time_point End;
    double Ms;
  };
  struct Op {
    size_t Program;
    double Ms;
    Clock::time_point End;
  };

  double medianMs() const {
    std::vector<double> Ms;
    for (const Round &Rd : Rounds)
      Ms.push_back(Rd.Ms);
    return Ms.empty() ? 0 : median(Ms);
  }

  std::vector<Round> Rounds; ///< In time order until absorbRounds.
  std::vector<Op> Ops;
};

/// setup_s: set-up repetitions, each between two host-probe rounds so that
/// it is put on the reference host's clock as the ops are.
class SetupTimer {
public:
  void begin() {
    Host.round();
    T0 = Clock::now();
  }

  void end() {
    Clock::time_point T1 = Clock::now();
    Raw.push_back(msBetween(T0, T1));
    Host.op(0, Raw.back(), T1);
  }

  /// Adds setup_s, the median repetition, and notes each as measured.
  void report(Report &R) {
    Host.round();
    std::string Reps;
    for (double Ms : Raw)
      Reps += " " + fmt("%.4f", Ms / 1e3);
    R.note("set-up repetitions (s, as measured):" + Reps);
    R.endToEnd("setup_s", median(Host.scaledOps(1)[0]) / 1e3, "s");
  }

private:
  HostProbe Host;
  Clock::time_point T0;
  std::vector<double> Raw;
};

//===----------------------------------------------------------------------===//
// The registered programs (steady, cold)
//===----------------------------------------------------------------------===//

struct Program {
  std::string Label;
  const BenchmarkDef *Def = nullptr;
  bool Bbv = false;
  bool PaperSet = false; ///< E1 or E16: counts toward pct_of_c.
  std::string Source;    ///< Definitions plus the timing wrapper.
  int64_t Expected = 0;  ///< From the native twin.
};

bool inGroup(const std::string &G, std::initializer_list<const char *> Gs) {
  for (const char *X : Gs)
    if (G == X)
      return true;
  return false;
}

/// Every registered program under new SELF, then (when \p WithBbv) the E16
/// suites again under the BBV tier. Expected answers are left to setup.
std::vector<Program> programSet(bool WithBbv) {
  std::vector<Program> Out;
  auto Add = [&Out](const BenchmarkDef &B, bool Bbv) {
    Program P;
    P.Label = B.Group + "/" + B.Name + (Bbv ? "@bbv" : "");
    P.Def = &B;
    P.Bbv = Bbv;
    P.PaperSet = !Bbv && (inGroup(B.Group, {"stanford", "stanford-oo", "small",
                                            "richards"}) ||
                          inGroup(B.Group, {kWorkloadGroups[0],
                                            kWorkloadGroups[1],
                                            kWorkloadGroups[2]}));
    // The wrapper is the harness's: a ^-bearing block keeps it from
    // inlining, so evaluating it does not re-inline the whole program.
    P.Source = B.Source +
               "\nbenchHarnessRun: n = ( | r | n timesRepeat: [ r: (" +
               B.RunExpr + ") ]. [ ^ r ] value )\n";
    Out.push_back(std::move(P));
  };
  for (const BenchmarkDef &B : allBenchmarks())
    Add(B, false);
  if (WithBbv)
    for (const BenchmarkDef &B : allBenchmarks())
      if (inGroup(B.Group,
                  {kWorkloadGroups[0], kWorkloadGroups[1], kWorkloadGroups[2]}))
        Add(B, true);
  return Out;
}

Policy policyFor(const Program &P) {
  return P.Bbv ? Policy::preset("newself/bbv")->P : Policy::newSelf();
}

/// Set-up shared by steady and cold: every program's expected answer from
/// its native twin (a twin that answers differently in a later repetition
/// fails the run), and a native sampler for each E1/E16 program.
void setupOracles(std::vector<Program> &Progs,
                  std::vector<std::unique_ptr<NativeSampler>> &Samplers,
                  Report &R) {
  std::map<const BenchmarkDef *, int64_t> Cache;
  Samplers.clear();
  for (Program &P : Progs) {
    auto It = Cache.find(P.Def);
    if (It == Cache.end())
      It = Cache.emplace(P.Def, P.Def->Native()).first;
    if (P.Expected != 0 && P.Expected != It->second)
      R.checkFailed(P.Label + ": native twin is not deterministic");
    P.Expected = It->second;
    Samplers.push_back(P.PaperSet
                           ? std::make_unique<NativeSampler>(P.Def->Native)
                           : nullptr);
  }
}

bool answerOk(const Interpreter::Outcome &O, int64_t Expected) {
  return O.Ok && O.Result.isInt() && O.Result.asInt() == Expected;
}

std::string answerError(const Interpreter::Outcome &O, int64_t Expected) {
  if (!O.Ok)
    return O.Message;
  if (!O.Result.isInt())
    return "non-integer result " + O.Result.describe();
  return "got " + std::to_string(O.Result.asInt()) + ", expected " +
         std::to_string(Expected);
}

/// Layers of evaluation, from per-op values \p S: the interpreter's work
/// counts and rates, dispatch, escape, BBV guards and the heap.
void reportEvalLayers(Report &R, const Sums &S) {
  double Sends = get(S, "sends");
  double SelfMs = get(S, "interp_self_ms");
  R.layer("interp.instructions_per_op", get(S, "instructions"), "count");
  R.layer("interp.type_tests_per_op", get(S, "type_tests"), "count");
  R.layer("interp.sends_per_op", Sends, "count");
  R.layer("interp.self_ms", SelfMs, "ms");
  R.layer("interp.mips",
          SelfMs > 0 ? get(S, "instructions") / (SelfMs * 1e3) : 0,
          "1e6/s");
  R.layer("interp.quick_sends", get(S, "quick_sends"), "count");
  R.layer("interp.quickenings", get(S, "quickenings"), "count");
  R.layer("interp.dequickenings", get(S, "dequickenings"), "count");
  R.layer("lookup.pic_hit_rate", Sends > 0 ? get(S, "pic_hits") / Sends : 0,
          "ratio");
  double Glc = get(S, "glc_hits") + get(S, "glc_misses");
  R.layer("lookup.glc_hit_rate", Glc > 0 ? get(S, "glc_hits") / Glc : 0,
          "ratio");
  R.layer("lookup.full_lookups", get(S, "full_lookups"), "count");
  R.layer("lookup.mega_share", Sends > 0 ? get(S, "sends_mega") / Sends : 0,
          "ratio");
  R.layer("escape.arena_allocs", get(S, "arena_allocs"), "count");
  R.layer("escape.evacuations", get(S, "evacuations"), "count");
  R.layer("escape.demotions", get(S, "demotions"), "count");
  R.layer("bbv.guard_slow", get(S, "bbv_guard_slow"), "count");
  R.layer("heap.alloc_bytes_per_op", get(S, "alloc_bytes"), "bytes");
  R.layer("heap.scavenges", get(S, "scavenges"), "count");
  R.layer("heap.scavenge_pause_ms", get(S, "scavenge_pause_ms"), "ms");
  R.layer("heap.promoted_bytes", get(S, "promoted_bytes"), "bytes");
  R.layer("heap.full_collections", get(S, "full_collections"), "count");
  R.layer("heap.full_pause_ms", get(S, "full_pause_ms"), "ms", false);
  R.layer("heap.barrier_hits", get(S, "barrier_hits"), "count");
  R.layer("heap.gc_pause_max_ms", get(S, "gc_pause_max_ms"), "ms");
}

/// Layers of VM creation, loading, parsing and compilation, from the
/// spans, the parser totals \p Parse and the per-VM code census \p PerVm.
/// \p VmCreateSpan names the span that constructs a VM: an isolate is a VM,
/// so on storm it is SharedRuntime::createIsolate.
void reportBuildLayers(Report &R, const Tracer &T, const Sums &Parse,
                       const Sums &PerVm,
                       const char *VmCreateSpan = "driver.vm_create") {
  const Sums &S = PerVm;
  double ParseCalls =
      get(Parse, "parse_calls") > 0 ? get(Parse, "parse_calls") : 1;
  R.layer("driver.vm_create_ms", T.medianMs(VmCreateSpan), "ms");
  R.layer("driver.load_ms", T.medianMs("driver.load"), "ms");
  R.layer("driver.isolate_create_ms", T.medianMs("driver.isolate_create"),
          "ms", false);
  R.layer("driver.isolate_destroy_ms", T.medianMs("driver.isolate_destroy"),
          "ms", false);
  R.layer("parser.parse_ms", get(Parse, "parse_ms") / ParseCalls, "ms");
  R.layer("parser.bytes_per_s",
          get(Parse, "parse_ms") > 0
              ? get(Parse, "parse_bytes") / (get(Parse, "parse_ms") / 1e3)
              : 0,
          "bytes/s");
  R.layer("interner.lookups", get(Parse, "interner_lookups") / ParseCalls,
          "count");
  R.layer("compiler.compile_ms", get(S, "compile_ms"), "ms");
  R.layer("compiler.analyze_ms", get(S, "analyze_ms"), "ms");
  R.layer("compiler.split_ms", get(S, "split_ms"), "ms");
  R.layer("compiler.lower_ms", get(S, "lower_ms"), "ms");
  R.layer("compiler.emit_ms", get(S, "emit_ms"), "ms");
  R.layer("compiler.functions", get(S, "functions"), "count");
  R.layer("compiler.sends_inlined", get(S, "sends_inlined"), "count");
  R.layer("compiler.nodes_copied", get(S, "nodes_copied"), "count");
  R.layer("compiler.loop_iterations", get(S, "loop_iterations"),
          "count");
  R.layer("compiler.type_tests_emitted", get(S, "type_tests_emitted"),
          "count");
  R.layer("peephole.super_fused", get(S, "super_fused"), "count");
  R.layer("peephole.moves_elided", get(S, "moves_elided"), "count");
  R.layer("bbv.versions", get(S, "bbv_versions"), "count");
  R.layer("bbv.generic_versions", get(S, "bbv_generic_versions"),
          "count");
  R.layer("bbv.type_tests_elided", get(S, "bbv_type_tests_elided"),
          "count");
}

/// Layers of tiering, the shared tier and the compile service, from per-op
/// values \p S. All zero outside storm, whose isolates are the only tiered
/// ones.
void reportTierLayers(Report &R, const Sums &S, const SharedTierStats &Shared,
                      double JobsPerOp) {
  R.layer("shared_tier.hit_rate", Shared.hitRate(), "ratio");
  R.layer("shared_tier.hits", get(S, "shared_hits"), "count");
  R.layer("shared_tier.publishes", get(S, "shared_publishes"), "count");
  R.layer("shared_tier.rehydrate_failures", get(S, "rehydrate_failures"),
          "count");
  R.layer("shared_tier.local_fallbacks", get(S, "local_fallbacks"),
          "count");
  R.layer("tier.baseline_compiles", get(S, "baseline_compiles"), "count");
  R.layer("tier.promotions", get(S, "promotions"), "count");
  R.layer("tier.bg_enqueued", get(S, "bg_enqueued"), "count");
  R.layer("tier.bg_installed", get(S, "bg_installed"), "count");
  R.layer("tier.bg_cancelled", get(S, "bg_cancelled"), "count");
  R.layer("tier.sync_fallbacks", get(S, "sync_fallbacks"), "count");
  R.layer("tier.mutator_stall_ms", get(S, "mutator_stall_ms"), "ms",
          false);
  R.layer("tier.bg_compile_ms", get(S, "bg_compile_ms"), "ms", false);
  double Enq = get(S, "bg_enqueued");
  R.layer("tier.bg_install_ratio", Enq > 0 ? get(S, "bg_installed") / Enq : 0,
          "ratio");
  R.note("tier.bg_install_ratio base: " + fmt("%.0f", Enq) +
         " promotions enqueued");
  R.layer("compile_service.jobs_executed", JobsPerOp, "count");
}

/// The tracing overhead: per program, traced minus untraced median op
/// time, averaged over programs. Both halves come from the same timed
/// phase, whose ops are traced or not at random.
void reportOverhead(Report &R, const std::vector<std::vector<double>> &Traced,
                    const std::vector<std::vector<double>> &Untraced) {
  double Sum = 0, TracedSum = 0;
  int N = 0;
  for (size_t I = 0; I < Traced.size(); ++I) {
    if (Traced[I].empty() || Untraced[I].empty())
      continue;
    Sum += median(Traced[I]) - median(Untraced[I]);
    TracedSum += median(Traced[I]);
    ++N;
  }
  double D = N ? Sum / N : 0;
  R.note("trace: overhead " + fmt("%.4f", D) + " ms per op, " +
         fmt("%.2f", N && TracedSum > 0 ? 100 * Sum / TracedSum : 0) +
         "% of traced op time, over " + std::to_string(N) + " programs");
  R.layer("trace.overhead_ms", D, "ms");
}

/// Everything a traced run reports: the per-layer metrics from the parser
/// totals, the per-VM census, the per-op values and the time from a VM's
/// or isolate's creation to its first answer; the tracing overhead, the
/// self time per layer, and the span file.
void reportTraced(const Options &O, Report &R, const Tracer &T,
                  const Sums &Parse, const Sums &PerVm, const Sums &PerOp,
                  const std::vector<std::vector<double>> &TracedMs,
                  const std::vector<std::vector<double>> &OpMs,
                  double FirstAnswerMs,
                  const SharedTierStats &Shared = SharedTierStats(),
                  double JobsPerOp = 0,
                  const char *VmCreateSpan = "driver.vm_create") {
  reportBuildLayers(R, T, Parse, PerVm, VmCreateSpan);
  R.layer("driver.first_answer_ms", FirstAnswerMs, "ms");
  reportEvalLayers(R, PerOp);
  reportTierLayers(R, PerOp, Shared, JobsPerOp);
  reportOverhead(R, TracedMs, OpMs);
  noteSelfTimes(T.spans(), R);
  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    R.checkFailed("cannot write trace " + O.TraceOut);
}

/// Constructs a VM under \p Pol, loads \p Source and evaluates
/// \p FirstExpr, each public call in its own span under \p Parent; the
/// traced run parses \p Source on its own first. \returns the VM, or null
/// with \p Err set.
std::unique_ptr<VirtualMachine>
startVm(const Policy &Pol, const std::string &Source,
        const std::string &FirstExpr, int64_t &Answer, std::string &Err,
        Tracer &T, Sums &Parse, int Parent = -1, int64_t Op = -1) {
  traceParse(T, Parse, Source, Parent, Op);
  int Sp = T.begin("driver.vm_create", Parent, Op);
  auto VM = std::make_unique<VirtualMachine>(Pol);
  T.end(Sp);
  Probe B = Probe::of(*VM);
  Sp = T.begin("driver.load", Parent, Op);
  bool Ok = VM->load(Source, Err);
  Probe A = Probe::of(*VM);
  T.end(Sp, (A.CompileSeconds - B.CompileSeconds) * 1e3,
        (A.GcPauseSeconds - B.GcPauseSeconds) * 1e3);
  if (!Ok) {
    Err = "load: " + Err;
    return nullptr;
  }
  B = A;
  Sp = T.begin("driver.eval", Parent, Op);
  Ok = VM->evalInt(FirstExpr, Answer, Err);
  A = Probe::of(*VM);
  T.end(Sp, (A.CompileSeconds - B.CompileSeconds) * 1e3,
        (A.GcPauseSeconds - B.GcPauseSeconds) * 1e3);
  return Ok ? std::move(VM) : nullptr;
}

Clock::time_point deadlineAfter(Clock::time_point Start, double Seconds) {
  return Start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(Seconds));
}

//===----------------------------------------------------------------------===//
// steady
//===----------------------------------------------------------------------===//

struct WarmCell {
  Program *P = nullptr;
  std::unique_ptr<VirtualMachine> VM;
  const ast::Code *Run = nullptr; ///< `benchHarnessRun: 1`, parsed once.
  uint64_t RefInstructions = 0, RefTypeTests = 0;
  CodeCensus Census;
};

/// Builds one warm VM per program: construct, load, first answer, then
/// warm-up passes until a whole pass compiles nothing and grows no code.
/// \returns false on any failure (recorded in \p R). \p FirstAnswerMs gets
/// one sample per program, indexed like \p Progs.
bool setupSteady(std::vector<Program> &Progs, std::vector<WarmCell> &Cells,
                 Tracer &T, Sums &Parse,
                 std::vector<std::vector<double>> &FirstAnswerMs,
                 Report &R) {
  Cells.clear();
  for (Program &P : Progs) {
    WarmCell C;
    C.P = &P;
    Clock::time_point T0 = Clock::now();
    int64_t V = 0;
    std::string Err;
    C.VM = startVm(policyFor(P), P.Source, "benchHarnessRun: 1", V, Err, T,
                   Parse);
    if (!C.VM || V != P.Expected) {
      R.checkFailed(P.Label + ": first answer: " +
                    (C.VM ? "got " + std::to_string(V) : Err));
      return false;
    }
    FirstAnswerMs[Cells.size()].push_back(msBetween(T0, Clock::now()));
    // Timed ops evaluate this one parsed expression, so the top-level
    // unit compiles once here instead of once per op.
    std::vector<const ast::Code *> Exprs;
    if (!C.VM->world().loadSource("benchHarnessRun: 1", Exprs, Err) ||
        Exprs.size() != 1) {
      R.checkFailed(P.Label + ": parse run expression: " + Err);
      return false;
    }
    C.Run = Exprs[0];
    Cells.push_back(std::move(C));
  }

  constexpr int kMaxWarmPasses = 8;
  for (int Pass = 0;; ++Pass) {
    bool Quiet = true;
    for (WarmCell &C : Cells) {
      Probe B = Probe::of(*C.VM);
      size_t Bytes = C.VM->code().totalCodeBytes();
      Interpreter::Outcome O = C.VM->interp().evalTopLevel(C.Run);
      Probe A = Probe::of(*C.VM);
      if (!answerOk(O, C.P->Expected)) {
        R.checkFailed(C.P->Label + ": warm-up: " +
                      answerError(O, C.P->Expected));
        return false;
      }
      C.RefInstructions = A.Instructions - B.Instructions;
      C.RefTypeTests = A.TypeTests - B.TypeTests;
      if (A.CompileSeconds != B.CompileSeconds ||
          C.VM->code().totalCodeBytes() != Bytes)
        Quiet = false;
    }
    if (Quiet)
      break;
    if (Pass + 1 == kMaxWarmPasses) {
      R.checkFailed("steady: warm-up still compiling after " +
                    std::to_string(kMaxWarmPasses) + " passes");
      return false;
    }
  }
  for (WarmCell &C : Cells)
    C.Census = CodeCensus::of(*C.VM);
  return true;
}

void runSteady(const Options &O, Report &R) {
  Tracer T(O.Trace, Clock::now(), 0);
  Rng Draw(O.Seed);
  std::vector<Program> Progs = programSet(/*WithBbv=*/true);
  std::vector<WarmCell> Cells;
  std::vector<std::unique_ptr<NativeSampler>> Samplers;
  SetupTimer Setup;
  std::vector<std::vector<double>> FirstAnswerMs(Progs.size());
  Sums Parse;
  for (int Rep = 0; Rep < kSteadySetupReps; ++Rep) {
    Cells.clear(); // Tear the previous repetition down before timing anew.
    Parse.clear();
    Setup.begin();
    setupOracles(Progs, Samplers, R);
    if (!setupSteady(Progs, Cells, T, Parse, FirstAnswerMs, R)) {
      R.attempt();
      R.fail("steady: set-up failed");
      return;
    }
    Setup.end();
  }

  uint64_t CodeBytes = 0;
  std::vector<Sums> BuildPer(Cells.size()), EvalPer(Cells.size());
  for (size_t I = 0; I < Cells.size(); ++I) {
    CodeBytes += Cells[I].Census.CodeBytes;
    if (T.on())
      Cells[I].Census.addTo(BuildPer[I]);
  }

  std::vector<std::vector<double>> OpMs(Cells.size()), TracedMs(Cells.size());
  OneInChoice Choice(T.on(), O.Seed);
  std::vector<size_t> OpCount(Cells.size(), 0);
  std::vector<size_t> Order(Cells.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  double GcMaxMs = 0, NativeMs = 0, RssMb = 0;
  HostProbe Host;

  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Start, O.Seconds);
  int64_t OpId = 0;
  for (int Pass = 1;; ++Pass) {
    Draw.shuffle(Order);
    for (size_t Idx : Order) {
      WarmCell &C = Cells[Idx];
      // Each program's first op is traced, so its exact counts always enter
      // the per-layer means.
      bool Traced = T.on() && (OpCount[Idx]++ == 0 || Choice.next());
      VmTelemetry TB;
      if (Traced)
        TB = C.VM->telemetry();
      Probe B = Probe::of(*C.VM);
      int Sp = Traced ? T.begin("driver.eval", -1, OpId) : -1;
      Clock::time_point T0 = Clock::now();
      Interpreter::Outcome Out = C.VM->interp().evalTopLevel(C.Run);
      Clock::time_point T1 = Clock::now();
      Probe A = Probe::of(*C.VM);
      double CompileMs = (A.CompileSeconds - B.CompileSeconds) * 1e3;
      double GcMs = (A.GcPauseSeconds - B.GcPauseSeconds) * 1e3;
      T.end(Sp, CompileMs, GcMs);
      ++OpId;
      R.attempt();
      double Ms = msBetween(T0, T1);
      if (!answerOk(Out, C.P->Expected))
        R.fail(C.P->Label + ": " + answerError(Out, C.P->Expected));
      else
        (Traced ? TracedMs : OpMs)[Idx].push_back(Ms);
      if (!Traced)
        Host.op(Idx, Ms, T1);
      // The heap keeps an all-time maximum; a rise is a pause of this op.
      if (A.GcMaxPauseSeconds > B.GcMaxPauseSeconds)
        GcMaxMs = std::max(GcMaxMs, A.GcMaxPauseSeconds * 1e3);
      if (CompileMs != 0)
        R.checkFailed(C.P->Label + ": a timed op compiled");
      if (A.Instructions - B.Instructions != C.RefInstructions ||
          A.TypeTests - B.TypeTests != C.RefTypeTests)
        R.checkFailed(C.P->Label + ": instruction or type-test count "
                                   "changed between passes");
      if (Traced) {
        addDelta(EvalPer[Idx], TB, C.VM->telemetry());
        EvalPer[Idx]["interp_self_ms"] += Ms - CompileMs - GcMs;
        EvalPer[Idx]["ops"] += 1;
      }
      if (Samplers[Idx])
        NativeMs += Samplers[Idx]->sample();
      NativeMs += Host.tick();
    }
    // Old spaces grow until their collection threshold, so the peak is
    // taken after a fixed amount of work, not after as much as the host
    // managed in the run.
    if (Pass == kMinSteadyPasses)
      RssMb = peakRssMb();
    // Whole passes only, so every program weighs the same in every run.
    if (Clock::now() >= Deadline && Pass >= kMinSteadyPasses)
      break;
  }
  double TimedS = (msBetween(Start, Clock::now()) - NativeMs) / 1e3;

  for (WarmCell &C : Cells)
    if (!CodeCensus::of(*C.VM).sameCounts(C.Census))
      R.checkFailed(C.P->Label + ": compiler counts or code size changed "
                                 "during the timed phase");

  // The untraced half carries the end-to-end numbers; in an untraced run
  // that is every op.
  Host.report(R);
  Setup.report(R);
  std::vector<std::string> Labels;
  for (const WarmCell &C : Cells)
    Labels.push_back(C.P->Label);
  reportOpTimes(R, Labels, OpMs, Host.scaledOps(OpMs.size()),
                answered(OpMs, TracedMs), TimedS);
  R.endToEnd("pct_of_c", pctOfC(Samplers, OpMs), "%");
  R.endToEnd("code_bytes", double(CodeBytes), "bytes");
  R.endToEnd("peak_rss_mb", RssMb, "MB");

  if (T.on()) {
    Sums PerOp = meanPerProgram(EvalPer, "ops");
    PerOp["gc_pause_max_ms"] = GcMaxMs;
    // Programs differ a hundredfold in time to first answer, so the median
    // over all would jump between neighbours; each program's median is
    // averaged geometrically instead, as for geomean_op_ms.
    std::vector<double> FirstAnswerMedians;
    for (const std::vector<double> &F : FirstAnswerMs)
      FirstAnswerMedians.push_back(median(F));
    reportTraced(O, R, T, Parse, meanPerProgram(BuildPer, "vms"), PerOp,
                 TracedMs, OpMs, geomean(FirstAnswerMedians));
  }
}

//===----------------------------------------------------------------------===//
// cold
//===----------------------------------------------------------------------===//

void runCold(const Options &O, Report &R) {
  Tracer T(O.Trace, Clock::now(), 0);
  Rng Draw(O.Seed);
  std::vector<Program> Progs = programSet(/*WithBbv=*/false);
  std::vector<std::unique_ptr<NativeSampler>> Samplers;
  SetupTimer Setup;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Setup.begin();
    setupOracles(Progs, Samplers, R);
    Setup.end();
  }

  struct Ref {
    bool Have = false;
    uint64_t Instructions = 0, TypeTests = 0;
    CodeCensus Census;
  };
  std::vector<Ref> Refs(Progs.size());
  std::vector<std::vector<double>> OpMs(Progs.size()), TracedMs(Progs.size());
  OneInChoice Choice(T.on(), O.Seed);
  std::vector<size_t> OpCount(Progs.size(), 0);
  std::vector<Sums> BuildPer(Progs.size()), EvalPer(Progs.size());
  Sums Parse;
  std::vector<size_t> Order(Progs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  double GcMaxMs = 0, NativeMs = 0, RssMb = 0;
  HostProbe Host;

  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Start, O.Seconds);
  int64_t OpId = 0;
  for (int Pass = 1;; ++Pass) {
    Draw.shuffle(Order);
    for (size_t Idx : Order) {
      Program &P = Progs[Idx];
      bool Traced = T.on() && (OpCount[Idx]++ == 0 || Choice.next());
      Tracer Off(false, Clock::now(), 0);
      Tracer &Tr = Traced ? T : Off;
      R.attempt();
      int Root = Tr.begin("op", -1, OpId);
      Clock::time_point T0 = Clock::now();
      int64_t V = 0;
      std::string Err;
      std::unique_ptr<VirtualMachine> VM =
          startVm(Policy::newSelf(), P.Source, "benchHarnessRun: 1", V, Err,
                  Tr, Parse, Root, OpId);
      Clock::time_point T1 = Clock::now();
      Tr.end(Root);
      ++OpId;
      double Ms = msBetween(T0, T1);
      if (!VM || V != P.Expected) {
        R.fail(P.Label + ": " +
               (VM ? "got " + std::to_string(V) + ", expected " +
                         std::to_string(P.Expected)
                   : Err));
      } else {
        (Traced ? TracedMs : OpMs)[Idx].push_back(Ms);
        if (!Traced)
          Host.op(Idx, Ms, T1);
        Probe A = Probe::of(*VM);
        GcMaxMs = std::max(GcMaxMs, A.GcMaxPauseSeconds * 1e3);
        // Exact work counts must repeat between passes.
        CodeCensus C = CodeCensus::of(*VM);
        Ref &Rf = Refs[Idx];
        if (!Rf.Have)
          Rf = {true, A.Instructions, A.TypeTests, C};
        else if (A.Instructions != Rf.Instructions ||
                 A.TypeTests != Rf.TypeTests || !C.sameCounts(Rf.Census))
          R.checkFailed(P.Label + ": exact counts differ between passes");
        if (Traced) {
          VmTelemetry Zero, After = VM->telemetry();
          double StallMs = After.Tier.MutatorStallSeconds * 1e3;
          C.addTo(BuildPer[Idx]);
          addDelta(EvalPer[Idx], Zero, After);
          EvalPer[Idx]["interp_self_ms"] +=
              Ms - StallMs - After.Gc.totalPauseSeconds() * 1e3;
          EvalPer[Idx]["ops"] += 1;
        }
      }
      VM.reset(); // Teardown is outside the op: the answer is already in.
      if (Samplers[Idx])
        NativeMs += Samplers[Idx]->sample();
      NativeMs += Host.tick();
    }
    if (Pass == kMinColdPasses)
      RssMb = peakRssMb(); // After a fixed amount of work, as in steady.
    if (Clock::now() >= Deadline && Pass >= kMinColdPasses)
      break;
  }
  double TimedS = (msBetween(Start, Clock::now()) - NativeMs) / 1e3;

  uint64_t CodeBytes = 0;
  for (const Ref &Rf : Refs)
    CodeBytes += Rf.Census.CodeBytes;
  Host.report(R);
  Setup.report(R);
  std::vector<std::string> Labels;
  std::vector<double> Medians;
  for (size_t I = 0; I < Progs.size(); ++I) {
    Labels.push_back(Progs[I].Label);
    if (!OpMs[I].empty())
      Medians.push_back(median(OpMs[I]));
  }
  reportOpTimes(R, Labels, OpMs, Host.scaledOps(OpMs.size()),
                answered(OpMs, TracedMs), TimedS);
  R.endToEnd("pct_of_c", pctOfC(Samplers, OpMs), "%");
  R.endToEnd("code_bytes", double(CodeBytes), "bytes");
  R.endToEnd("peak_rss_mb", RssMb, "MB");

  if (T.on()) {
    Sums PerOp = meanPerProgram(EvalPer, "ops");
    PerOp["gc_pause_max_ms"] = GcMaxMs;
    // A cold op is the time to first answer; averaged over programs as in
    // steady.
    reportTraced(O, R, T, Parse, meanPerProgram(BuildPer, "vms"), PerOp,
                 TracedMs, OpMs, geomean(Medians));
  }
}

//===----------------------------------------------------------------------===//
// storm
//===----------------------------------------------------------------------===//

/// The E15 session mix (bench/table_server.cpp): definitions loaded once
/// per isolate as the prelude, the expression one session evaluates, its
/// expected value, and a native twin applied to the script's argument.
struct Script {
  const char *Defs;
  const char *Expr;
  int64_t Expected;
  int64_t Arg;
  int64_t (*Native)(int64_t);
};

int64_t nativeFib(int64_t N) {
  return N < 2 ? N : nativeFib(N - 1) + nativeFib(N - 2);
}
int64_t nativeIsOdd(int64_t N);
int64_t nativeIsEven(int64_t N) { return N == 0 ? 1 : nativeIsOdd(N - 1); }
int64_t nativeIsOdd(int64_t N) { return N == 0 ? 0 : nativeIsEven(N - 1); }

const Script kScripts[] = {
    {"sumUpTo: n = ( | s <- 0. i <- 1 | "
     "[ i <= n ] whileTrue: [ s: s + i. i: i + 1 ]. s )",
     "sumUpTo: 60", 1830, 60,
     [](int64_t N) {
       int64_t S = 0;
       for (int64_t I = 1; I <= N; ++I)
         S += I;
       return S;
     }},
    {"fib: n = ( n < 2 ifTrue: [ n ] False: "
     "[ (fib: n - 1) + (fib: n - 2) ] )",
     "fib: 11", 89, 11, nativeFib},
    {"squaresTo: n = ( | s <- 0 | 1 to: n Do: [ :i | s: s + (i * i) ]. s )",
     "squaresTo: 12", 650, 12,
     [](int64_t N) {
       int64_t S = 0;
       for (int64_t I = 1; I <= N; ++I)
         S += I * I;
       return S;
     }},
    {"mkAdder: n = ( [ :x | x + n ] )", "(mkAdder: 30) value: 12", 42, 30,
     [](int64_t N) {
       auto Add = [N](int64_t X) { return X + N; };
       return Add(12);
     }},
    {"applyTwice: b To: x = ( b value: (b value: x) )",
     "applyTwice: [ :v | v * 3 ] To: 2", 18, 2,
     [](int64_t X) {
       auto B = [](int64_t V) { return V * 3; };
       return B(B(X));
     }},
    {"shapeA = ( | parent* = lobby. area = ( 10 ) | ). "
     "shapeB = ( | parent* = lobby. area = ( 20 ) | ). "
     "sumAreas = ( | t <- 0. s | 1 to: 10 Do: [ :i | "
     "s: (i even ifTrue: [ shapeA ] False: [ shapeB ]). "
     "t: t + s area ]. t )",
     "sumAreas", 150, 10,
     [](int64_t N) {
       int64_t T = 0;
       for (int64_t I = 1; I <= N; ++I)
         T += I % 2 == 0 ? 10 : 20;
       return T;
     }},
    {"fill: n = ( | v. s <- 0 | v: (vectorOfSize: n). "
     "0 upTo: n Do: [ :i | v at: i Put: i * 2 ]. "
     "v do: [ :e | s: s + e ]. s )",
     "fill: 12", 132, 12,
     [](int64_t N) {
       std::vector<int64_t> V(static_cast<size_t>(N));
       for (int64_t I = 0; I < N; ++I)
         V[static_cast<size_t>(I)] = I * 2;
       int64_t S = 0;
       for (int64_t E : V)
         S += E;
       return S;
     }},
    {"grid = ( | t <- 0 | 1 to: 6 Do: [ :i | 1 to: 6 Do: [ :j | "
     "t: t + (i * j) ] ]. t )",
     "grid", 441, 6,
     [](int64_t N) {
       int64_t T = 0;
       for (int64_t I = 1; I <= N; ++I)
         for (int64_t J = 1; J <= N; ++J)
           T += I * J;
       return T;
     }},
    {"isEven: n = ( n == 0 ifTrue: [ 1 ] False: [ isOdd: n - 1 ] ). "
     "isOdd: n = ( n == 0 ifTrue: [ 0 ] False: [ isEven: n - 1 ] )",
     "isEven: 14", 1, 14, nativeIsEven},
    {"firstSquareOver: lim = ( 1 to: 100 Do: [ :i | "
     "i * i > lim ifTrue: [ ^ i ] ]. 0 )",
     "firstSquareOver: 300", 18, 300,
     [](int64_t Lim) {
       for (int64_t I = 1; I <= 100; ++I)
         if (I * I > Lim)
           return I;
       return int64_t(0);
     }},
    {"mix: n = ( | t <- 0 | 1 to: n Do: [ :i | "
     "t: t + ((i * 3) % 7) + (i % 5) ]. t )",
     "mix: 40", 202, 40,
     [](int64_t N) {
       int64_t T = 0;
       for (int64_t I = 1; I <= N; ++I)
         T += (I * 3) % 7 + I % 5;
       return T;
     }},
    {"tr = ( | c <- 0 | 9 timesRepeat: [ c: c + 3 ]. c )", "tr", 27, 9,
     [](int64_t N) {
       int64_t C = 0;
       for (int64_t I = 0; I < N; ++I)
         C += 3;
       return C;
     }},
};
constexpr size_t kNumScripts = sizeof(kScripts) / sizeof(kScripts[0]);

/// Sessions an isolate serves before it is destroyed: each thread cycles
/// through kMinLife * 2^k for k < kLifeSteps, in a seeded order per cycle,
/// so short lives (baseline code, promotions pending) and long ones (every
/// promotion done, the nursery filled and scavenged) occur in the same
/// proportions whatever the seed.
constexpr size_t kMinLife = 10, kLifeSteps = 12;
/// The allocator's freed memory creeps up over a run, by as much as the
/// host allowed work, so storm's peak_rss_mb is taken over a fixed amount
/// of work: each thread's first kRssCycles cycles of lifetimes.
constexpr size_t kRssCycles = 20;
/// The traced storm run traces one session in this many: sessions are
/// short, and a span per session would dwarf the trace.
constexpr size_t kStormTraceEvery = 8;
/// Storm keeps the latency of one untraced session in this many, drawn at
/// random. A run serves millions of sessions; over all of them the tail
/// rule would pick p99.999, which rests on a few dozen sessions that the
/// host preempted. The sample keeps the tail at p99.9 and the harness's
/// memory out of peak_rss_mb.
constexpr size_t kStormSampleEvery = 128;
/// Sessions the set-up isolate serves to fill the shared tier.
constexpr int kWarmSessions = 2400;

std::string stormPrelude() {
  std::string S;
  for (size_t I = 0; I < kNumScripts; ++I)
    S += (I ? ". " : "") + std::string(kScripts[I].Defs);
  return S;
}

Policy stormPolicy() { return Policy::preset("newself/bgtier")->P; }

/// What one storm thread measured. Merged after the threads join.
struct StormThread {
  explicit StormThread(Tracer T) : T(std::move(T)) {}
  Tracer T;
  std::vector<std::vector<double>> SessionMs =
      std::vector<std::vector<double>>(kNumScripts);
  std::vector<std::vector<double>> TracedMs =
      std::vector<std::vector<double>>(kNumScripts);
  /// SessionMs on the reference host's clock, merged from the threads.
  std::vector<std::vector<double>> ScaledMs =
      std::vector<std::vector<double>>(kNumScripts);
  std::vector<double> FirstAnswerMs, CodeBytes; ///< Per isolate.
  Sums Life, Census, Parse; ///< Isolate-lifetime telemetry and code
                            ///< census; parser totals.
  /// The scripts' native twins, one batch timed after each isolate, so
  /// twins and sessions share this thread's core and its neighbours.
  std::vector<std::unique_ptr<NativeSampler>> Natives;
  HostProbe Host;
  double SelfMs = 0, SelfSessions = 0, GcMaxMs = 0, Sessions = 0;
  double NativeMs = 0; ///< Spent timing the twins and probing the host.
  /// The highest resident set seen at a probe round in the first
  /// kRssCycles cycles of lifetimes.
  double RssMb = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< The first few, described.
  Clock::time_point StoppedAt;
};

/// One storm mutator: isolates created, served and destroyed in a closed
/// loop until \p Deadline.
void stormFailure(StormThread &S, std::string What) {
  ++S.Failed;
  if (S.Failures.size() < 10)
    S.Failures.push_back(std::move(What));
}

void stormLoop(SharedRuntime &RT, uint64_t Seed, Clock::time_point Deadline,
               const std::string &Prelude, StormThread &S) {
  Rng Draw(Seed);
  Tracer &T = S.T;
  OneInChoice Choice(T.on(), Seed, kStormTraceEvery);
  OneInChoice Sample(true, ~Seed, kStormSampleEvery);
  std::vector<size_t> Lives;
  size_t NextNative = 0, Cycles = 0;
  while (Clock::now() < Deadline) {
    if (Lives.empty()) {
      ++Cycles;
      for (size_t K = 0; K < kLifeSteps; ++K)
        Lives.push_back(kMinLife << K);
      Draw.shuffle(Lives);
    }
    size_t Life = Lives.back();
    Lives.pop_back();
    Clock::time_point T0 = Clock::now();
    int Sp = T.begin("driver.isolate_create");
    std::unique_ptr<Isolate> Iso = RT.createIsolate(stormPolicy());
    T.end(Sp);
    VirtualMachine &VM = Iso->vm();
    traceParse(T, S.Parse, Prelude, -1, -1);
    std::string Err;
    Sp = T.begin("driver.load");
    bool Loaded = VM.load(Prelude, Err);
    T.end(Sp);
    if (!Loaded) {
      ++S.Attempted;
      stormFailure(S, "storm prelude: " + Err);
      continue;
    }
    double Served = 0;
    for (size_t I = 0; I < Life; ++I) {
      const size_t K = Draw.below(kNumScripts);
      const Script &Sc = kScripts[K];
      bool Traced = Choice.next();
      VmTelemetry TB;
      if (Traced)
        TB = VM.telemetry();
      int64_t V = 0;
      Sp = Traced ? T.begin("driver.eval") : -1;
      Clock::time_point L0 = Clock::now();
      bool Ok = VM.evalInt(Sc.Expr, V, Err);
      Clock::time_point L1 = Clock::now();
      double Ms = msBetween(L0, L1);
      ++S.Attempted;
      if (Traced) {
        VmTelemetry TA = VM.telemetry();
        double CompileMs =
            (TA.Tier.MutatorStallSeconds - TB.Tier.MutatorStallSeconds) * 1e3;
        double GcMs =
            (TA.Gc.totalPauseSeconds() - TB.Gc.totalPauseSeconds()) * 1e3;
        T.end(Sp, CompileMs, GcMs);
        S.SelfMs += Ms - CompileMs - GcMs;
        ++S.SelfSessions;
      }
      if (!Ok || V != Sc.Expected) {
        stormFailure(S, std::string("storm ") + Sc.Expr + ": " +
                            (Ok ? "got " + std::to_string(V) : Err));
      } else {
        if (Served == 0)
          S.FirstAnswerMs.push_back(msBetween(T0, L1));
        if (Traced)
          S.TracedMs[K].push_back(Ms);
        else if (Sample.next()) {
          S.SessionMs[K].push_back(Ms);
          S.Host.op(K, Ms, L1);
        }
        ++Served;
      }
    }
    S.Sessions += Served;
    S.CodeBytes.push_back(double(VM.code().totalCodeBytes()));
    S.GcMaxMs = std::max(S.GcMaxMs,
                         VM.heap().statsSnapshot().maxPauseSeconds() * 1e3);
    if (T.on()) {
      addDelta(S.Life, VmTelemetry(), VM.telemetry());
      CodeCensus::of(VM).addTo(S.Census);
    }
    Sp = T.begin("driver.isolate_destroy");
    Iso.reset();
    T.end(Sp);
    S.NativeMs += S.Natives[NextNative]->sample();
    NextNative = (NextNative + 1) % S.Natives.size();
    Clock::time_point P0 = Clock::now();
    if (S.Host.tick() > 0) {
      if (Cycles <= kRssCycles)
        S.RssMb = std::max(S.RssMb, currentRssMb());
      S.NativeMs += msBetween(P0, Clock::now());
    }
  }
}

/// A storm thread's entry: nothing may escape it.
void stormThread(SharedRuntime &RT, uint64_t Seed, Clock::time_point Deadline,
                 const std::string &Prelude, StormThread &S) {
  try {
    stormLoop(RT, Seed, Deadline, Prelude, S);
  } catch (const std::exception &E) {
    ++S.Attempted;
    stormFailure(S, std::string("storm thread: ") + E.what());
  }
  S.StoppedAt = Clock::now();
}

/// Set-up: a fresh runtime whose shared tier one isolate fills by serving
/// every script until its promotions are installed. \p Tier gets that
/// isolate's tiering counters: the background pipeline runs here, since
/// later isolates find the promoted code in the shared tier.
bool setupStorm(std::unique_ptr<SharedRuntime> &RT, const std::string &Prelude,
                TierStats &Tier, Report &R) {
  RT.reset();
  RT = std::make_unique<SharedRuntime>(1);
  std::unique_ptr<Isolate> Iso = RT->createIsolate(stormPolicy());
  std::string Err;
  if (!Iso->load(Prelude, Err)) {
    R.checkFailed("storm set-up prelude: " + Err);
    return false;
  }
  for (int I = 0; I < kWarmSessions; ++I) {
    const Script &Sc = kScripts[static_cast<size_t>(I) % kNumScripts];
    int64_t V = 0;
    if (!Iso->vm().evalInt(Sc.Expr, V, Err) || V != Sc.Expected) {
      R.checkFailed(std::string("storm set-up ") + Sc.Expr + ": " + Err);
      return false;
    }
  }
  Iso->vm().settleBackgroundCompiles();
  Tier = Iso->vm().code().tierStats();
  return true;
}

void runStorm(const Options &O, Report &R) {
  const std::string Prelude = stormPrelude();
  for (const Script &Sc : kScripts)
    if (Sc.Native(Sc.Arg) != Sc.Expected)
      R.checkFailed(std::string("storm: native twin disagrees on ") +
                    Sc.Expr);
  std::unique_ptr<SharedRuntime> RT;
  std::vector<std::vector<std::unique_ptr<NativeSampler>>> ThreadNatives;
  SetupTimer Setup;
  TierStats SetupTier;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    Setup.begin();
    ThreadNatives.clear();
    for (int I = 0; I < kStormThreads; ++I) {
      ThreadNatives.emplace_back();
      for (const Script &Sc : kScripts)
        ThreadNatives.back().push_back(std::make_unique<NativeSampler>([&Sc] {
          volatile int64_t Arg = Sc.Arg; // Keeps the call from folding.
          return Sc.Native(Arg);
        }));
    }
    if (!setupStorm(RT, Prelude, SetupTier, R)) {
      R.attempt();
      R.fail("storm: set-up failed");
      return;
    }
    Setup.end();
  }

  // The set-up repetitions leave the allocator holding a varying amount of
  // freed memory, so the timed phase starts from a trimmed heap and its
  // own peak is reported.
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  SharedTierStats Shared0 = RT->tier().statsSnapshot();
  uint64_t Jobs0 = RT->compileService().jobsExecuted();
  Clock::time_point Origin = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Origin, O.Seconds);
  Rng Seeds(O.Seed);
  std::vector<std::unique_ptr<StormThread>> Ts;
  for (int I = 0; I < kStormThreads; ++I) {
    Ts.push_back(std::make_unique<StormThread>(Tracer(O.Trace, Origin, I)));
    Ts.back()->Natives = std::move(ThreadNatives[size_t(I)]);
  }
  {
    std::vector<std::jthread> Threads; // Joined on every path out.
    for (int I = 0; I < kStormThreads; ++I)
      Threads.emplace_back(stormThread, std::ref(*RT), Seeds.next(), Deadline,
                           std::cref(Prelude), std::ref(*Ts[I]));
  }
  SharedTierStats Shared1 = RT->tier().statsSnapshot();
  uint64_t Jobs = RT->compileService().jobsExecuted() - Jobs0;

  StormThread All{Tracer(O.Trace, Origin, 0)};
  std::vector<std::unique_ptr<NativeSampler>> Samplers =
      std::move(Ts[0]->Natives);
  Clock::time_point Stopped = Origin;
  for (std::unique_ptr<StormThread> &S : Ts) {
    for (size_t K = 0; K < S->Natives.size(); ++K)
      Samplers[K]->absorb(*S->Natives[K]);
    All.NativeMs += S->NativeMs;
    All.RssMb = std::max(All.RssMb, S->RssMb);
    All.Host.absorbRounds(S->Host);
    std::vector<std::vector<double>> Scaled = S->Host.scaledOps(kNumScripts);
    All.T.absorb(std::move(S->T));
    for (size_t K = 0; K < kNumScripts; ++K) {
      All.SessionMs[K].insert(All.SessionMs[K].end(), S->SessionMs[K].begin(),
                              S->SessionMs[K].end());
      All.TracedMs[K].insert(All.TracedMs[K].end(), S->TracedMs[K].begin(),
                             S->TracedMs[K].end());
      All.ScaledMs[K].insert(All.ScaledMs[K].end(), Scaled[K].begin(),
                             Scaled[K].end());
    }
    for (auto [Dst, Src] :
         {std::pair(&All.FirstAnswerMs, &S->FirstAnswerMs),
          std::pair(&All.CodeBytes, &S->CodeBytes)})
      Dst->insert(Dst->end(), Src->begin(), Src->end());
    for (const auto &[K, V] : S->Life)
      All.Life[K] += V;
    for (const auto &[K, V] : S->Parse)
      All.Parse[K] += V;
    for (const auto &[K, V] : S->Census)
      All.Census[K] += V;
    All.SelfMs += S->SelfMs;
    All.SelfSessions += S->SelfSessions;
    All.Sessions += S->Sessions;
    All.GcMaxMs = std::max(All.GcMaxMs, S->GcMaxMs);
    R.attempt(S->Attempted);
    for (const std::string &F : S->Failures)
      R.fail(F);
    if (S->Failed > S->Failures.size())
      R.fail("storm: further failures", S->Failed - S->Failures.size());
    Stopped = std::max(Stopped, S->StoppedAt);
  }
  // Each thread served sessions for the phase minus its own twin timing.
  double TimedS =
      (msBetween(Origin, Stopped) - All.NativeMs / kStormThreads) / 1e3;

  R.note("storm set-up isolate: " +
         std::to_string(SetupTier.BaselineCompiles) + " baseline compiles, " +
         std::to_string(SetupTier.BackgroundEnqueued) + " promotions enqueued, " +
         std::to_string(SetupTier.BackgroundInstalled) + " installed, " +
         fmt("%.3f", SetupTier.BackgroundCompileSeconds * 1e3) +
         " ms of background compilation");
  R.note("storm: " + std::to_string(kStormThreads) + " threads, " +
         std::to_string(All.CodeBytes.size()) + " isolates, " +
         fmt("%.0f", All.Sessions) + " sessions; shared tier holds " +
         std::to_string(Shared1.AstPrograms) + " programs, " +
         std::to_string(Shared1.Artifacts) + " artifacts, " +
         std::to_string(Shared1.InternedStrings) + " interned strings");
  std::vector<std::string> Labels;
  for (const Script &Sc : kScripts)
    Labels.push_back(Sc.Expr);
  All.Host.report(R);
  Setup.report(R);
  reportOpTimes(R, Labels, All.SessionMs, All.ScaledMs, All.Sessions, TimedS);
  R.endToEnd("pct_of_c", pctOfC(Samplers, All.SessionMs), "%");
  R.endToEnd("code_bytes", median(All.CodeBytes), "bytes");
  R.endToEnd("peak_rss_mb", All.RssMb > 0 ? All.RssMb : peakRssMb(), "MB");

  if (O.Trace) {
    // Storm is not deterministic, so its layers are plain per-session
    // averages over the whole run rather than per-program exact counts.
    double N = All.Sessions > 0 ? All.Sessions : 1;
    Sums PerOp;
    for (const auto &[K, V] : All.Life)
      PerOp[K] = V / N;
    PerOp["interp_self_ms"] =
        All.SelfSessions > 0 ? All.SelfMs / All.SelfSessions : 0;
    PerOp["gc_pause_max_ms"] = All.GcMaxMs;
    SharedTierStats D; // The timed phase's probes only.
    D.CodeHits = Shared1.CodeHits - Shared0.CodeHits;
    D.CodeMisses = Shared1.CodeMisses - Shared0.CodeMisses;
    D.CodeUnportableProbes =
        Shared1.CodeUnportableProbes - Shared0.CodeUnportableProbes;
    reportTraced(O, R, All.T, All.Parse, meanPerProgram({All.Census}, "vms"),
                 PerOp, All.TracedMs, All.SessionMs,
                 median(All.FirstAnswerMs), D, double(Jobs) / N,
                 "driver.isolate_create");
  }
}

//===----------------------------------------------------------------------===//
// oldgen
//===----------------------------------------------------------------------===//

/// E18's retained graph (a ~65k-node binary tree) plus a tenuring churn
/// kernel: every iteration's clone stays referenced from a kRing-slot ring
/// for kRing more iterations, so it survives scavenges, is promoted, and
/// then dies in the old space.
constexpr int64_t kRing = 32768;
const char *const kOldgenPrelude =
    "rnode = ( | parent* = lobby. l. r. v <- 0 | ). "
    "rgrow: d = ( | o | o: rnode clone. o v: d. "
    "d > 0 ifTrue: [ o l: (rgrow: d - 1). o r: (rgrow: d - 1) ] "
    "False: [ ]. o ). "
    "retained <- nil. "
    "buildRetained = ( retained: (rgrow: 15). 0 ). "
    "wproto = ( | parent* = lobby. v <- 0 | ). "
    "churn: n Seed: s = ( | r. o. t <- 0 | r: (vectorOfSize: 32768). "
    "1 to: n Do: [ :i | o: wproto clone. o v: i + s. "
    "r at: i % 32768 Put: o. t: t + (r at: i % 32768) v ]. t )";
/// Iterations per op.
constexpr int64_t kChurnIters = 100000;

int64_t churnClosedForm(int64_t N, int64_t S) { return N * (N + 1) / 2 + N * S; }

/// The kernel's native twin: the same ring of objects in C++, recycled
/// through a free list as an optimized C program would recycle them. With
/// malloc and free instead, its time followed the state the VM's own
/// allocations left the allocator in, and moved by a fifth between runs.
int64_t nativeChurn(int64_t N, int64_t S) {
  struct Obj {
    int64_t V;
    Obj *NextFree;
  };
  std::vector<Obj> Pool(static_cast<size_t>(kRing) + 1);
  Obj *Free = nullptr;
  for (Obj &O : Pool) {
    O.NextFree = Free;
    Free = &O;
  }
  std::vector<Obj *> Ring(static_cast<size_t>(kRing), nullptr);
  int64_t T = 0;
  for (int64_t I = 1; I <= N; ++I) {
    Obj *&Slot = Ring[static_cast<size_t>(I % kRing)];
    if (Slot) {
      Slot->NextFree = Free;
      Free = Slot;
    }
    Slot = Free;
    Free = Slot->NextFree;
    Slot->V = I + S;
    T += Slot->V;
  }
  return T;
}

void runOldgen(const Options &O, Report &R) {
  Tracer T(O.Trace, Clock::now(), 0);
  Rng Draw(O.Seed);
  std::unique_ptr<VirtualMachine> VM;
  std::vector<std::unique_ptr<NativeSampler>> Samplers;
  SetupTimer Setup;
  std::vector<double> FirstAnswerMs;
  Sums Parse;
  for (int Rep = 0; Rep < kSetupReps; ++Rep) {
    VM.reset();
    Parse.clear();
    Setup.begin();
    Clock::time_point T0 = Clock::now();
    Samplers.clear();
    Samplers.push_back(std::make_unique<NativeSampler>([] {
      volatile int64_t Seed = 7; // Keeps the call from folding.
      return nativeChurn(kChurnIters, Seed);
    }));
    int64_t V = -1;
    std::string Err;
    VM = startVm(Policy::newSelf(), kOldgenPrelude, "buildRetained", V, Err,
                 T, Parse);
    if (VM && V != 0)
      Err = "buildRetained got " + std::to_string(V);
    else if (VM && VM->evalInt("churn: 1000 Seed: 7", V, Err) &&
             V != churnClosedForm(1000, 7))
      Err = "warm-up churn got " + std::to_string(V);
    if (!VM || !Err.empty()) {
      R.attempt();
      R.fail("oldgen: set-up: " + Err);
      return;
    }
    Setup.end();
    FirstAnswerMs.push_back(msBetween(T0, Clock::now()));
  }
  uint64_t CodeBytes = VM->code().totalCodeBytes();
  Sums PerVm;
  CodeCensus::of(*VM).addTo(PerVm);

  std::vector<std::vector<double>> OpMs(1), TracedMs(1);
  std::vector<Sums> EvalPer(1);
  OneInChoice Choice(T.on(), O.Seed);
  double GcMaxMs = 0, NativeMs = 0, RssMb = 0;
  HostProbe Host;
  uint64_t Full0 = VM->heap().stats().FullCollections;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline = deadlineAfter(Start, O.Seconds);
  for (int64_t OpId = 0;; ++OpId) {
    int64_t S = static_cast<int64_t>(Draw.below(1000000));
    std::string Expr = "churn: " + std::to_string(kChurnIters) +
                       " Seed: " + std::to_string(S);
    bool Traced = Choice.next();
    VmTelemetry TB;
    if (Traced)
      TB = VM->telemetry();
    Probe B = Probe::of(*VM);
    int Sp = Traced ? T.begin("driver.eval", -1, OpId) : -1;
    int64_t V = 0;
    std::string Err;
    Clock::time_point T0 = Clock::now();
    bool Ok = VM->evalInt(Expr, V, Err);
    Clock::time_point T1 = Clock::now();
    Probe A = Probe::of(*VM);
    double CompileMs = (A.CompileSeconds - B.CompileSeconds) * 1e3;
    double GcMs = (A.GcPauseSeconds - B.GcPauseSeconds) * 1e3;
    T.end(Sp, CompileMs, GcMs);
    R.attempt();
    double Ms = msBetween(T0, T1);
    if (!Ok || V != churnClosedForm(kChurnIters, S))
      R.fail(Expr + ": " + (Ok ? "got " + std::to_string(V) : Err));
    else
      (Traced ? TracedMs : OpMs)[0].push_back(Ms);
    if (!Traced)
      Host.op(0, Ms, T1);
    if (A.GcMaxPauseSeconds > B.GcMaxPauseSeconds)
      GcMaxMs = std::max(GcMaxMs, A.GcMaxPauseSeconds * 1e3);
    if (Traced) {
      addDelta(EvalPer[0], TB, VM->telemetry());
      EvalPer[0]["interp_self_ms"] += Ms - CompileMs - GcMs;
      EvalPer[0]["ops"] += 1;
    }
    NativeMs += Samplers[0]->sample();
    NativeMs += Host.tick();
    if (OpId + 1 == kMinOldgenOps)
      RssMb = peakRssMb(); // After a fixed amount of work, as in steady.
    if (T1 >= Deadline && OpId + 1 >= kMinOldgenOps)
      break;
  }
  double TimedS = (msBetween(Start, Clock::now()) - NativeMs) / 1e3;
  uint64_t Fulls = VM->heap().stats().FullCollections - Full0;
  if (Fulls == 0)
    R.checkFailed("oldgen: no full collection in the timed phase");
  R.note("oldgen: " + std::to_string(Fulls) + " full collections in the "
                                               "timed phase");

  Host.report(R);
  Setup.report(R);
  reportOpTimes(R, {"churn"}, OpMs, Host.scaledOps(1),
                answered(OpMs, TracedMs), TimedS);
  R.endToEnd("pct_of_c", pctOfC(Samplers, OpMs), "%");
  R.endToEnd("code_bytes", double(CodeBytes), "bytes");
  R.endToEnd("peak_rss_mb", RssMb, "MB");

  if (T.on()) {
    Sums PerOp = meanPerProgram(EvalPer, "ops");
    PerOp["gc_pause_max_ms"] = GcMaxMs;
    reportTraced(O, R, T, Parse, PerVm, PerOp, TracedMs, OpMs,
                 median(FirstAnswerMs));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  // Run with address-space randomization off, re-executing once to get
  // there. miniself's speed depends on where its objects land (hashes and
  // caches keyed by address): with randomization on, the same seed on the
  // same build gave steady geomeans 18% apart; with it off, 1%.
  int Persona = personality(0xffffffff);
  bool FixedLayout = Persona != -1 && (Persona & ADDR_NO_RANDOMIZE);
  if (Persona != -1 && !FixedLayout &&
      personality(static_cast<unsigned long>(Persona) | ADDR_NO_RANDOMIZE) !=
          -1)
    execv("/proc/self/exe", Argv); // Returns only on failure: run as is.

  Options O;
  std::string Err;
  if (!parseOptions(Argc, Argv, O, Err)) {
    fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  Report R;
  R.note(std::string("address-space randomization: ") +
         (FixedLayout ? "off" : "on (could not be turned off)"));
  if (O.Workload == "steady")
    runSteady(O, R);
  else if (O.Workload == "cold")
    runCold(O, R);
  else if (O.Workload == "storm")
    runStorm(O, R);
  else if (O.Workload == "oldgen")
    runOldgen(O, R);
  else {
    fprintf(stderr, "perfbench: unknown workload %s\n", O.Workload.c_str());
    return 2;
  }
  R.print(O.Trace);
  return 0;
}
