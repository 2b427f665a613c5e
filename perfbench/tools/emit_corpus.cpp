// One-off generator of perfbench/corpus.scn, the des-fault-corpus workload's
// fixed scenario set. Not part of a benchmark run: the corpus is committed
// data, so later changes to the fuzzer cannot silently change the workload.
//
// Draws ScenarioFuzzer scenarios restricted to the DES and to every protocol
// except regular-opt, keeps those that expect an ok verdict and use only
// model-legal fault primitives, runs each once to confirm the verdict, and
// stops once kCount scenarios are kept. It fails unless the kept set covers
// every model-legal primitive and both closed- and open-loop cells.
//
//   emit_corpus OUT.scn
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "harness/fuzz.hpp"
#include "harness/scenario_dsl.hpp"
#include "harness/sweep.hpp"

using namespace rr::harness;

namespace {

/// The committed corpus: this many scenarios from this fuzzer seed.
constexpr int kCount = 150;
constexpr std::uint64_t kFuzzSeed = 2026;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: emit_corpus OUT.scn\n");
    return 2;
  }

  FuzzOptions fo;
  fo.seed = kFuzzSeed;
  for (const auto& t : protocol_registry()) {
    if (t.id != Protocol::RegularOptimized) fo.protocols.push_back(t.id);
  }
  fo.backends = {BackendKind::Sim};
  const ScenarioFuzzer fuzzer(fo);

  const auto& legal_list = model_legal_primitives();
  const std::set<std::string> legal(legal_list.begin(), legal_list.end());
  std::set<std::string> seen_prims;
  int open_loop = 0;
  std::string out =
      "# des-fault-corpus: emitted by perfbench/tools/emit_corpus.cpp (fuzz "
      "seed " +
      std::to_string(kFuzzSeed) +
      ").\n# DES only, expect ok, every protocol except regular-opt, "
      "model-legal primitives only.\n# The benchmark overrides each "
      "scenario's runseed from its --seed.\n";
  int kept = 0;
  for (std::uint64_t i = 0; kept < kCount && i < 100'000; ++i) {
    const Scenario s = fuzzer.generate(i);
    if (!s.expect_ok) continue;
    bool ok = true;
    for (const auto& ev : s.events) ok = ok && legal.count(primitive_name(ev));
    if (!ok) continue;
    const CellVerdict v = SweepEngine::run_cell(s);
    if (!v.ok) {
      std::fprintf(stderr, "%s failed: %s\n", s.name.c_str(),
                   v.first_violation.c_str());
      return 1;
    }
    for (const auto& ev : s.events) seen_prims.insert(primitive_name(ev));
    if (s.arrival != ArrivalKind::Closed) ++open_loop;
    out += "---\n" + emit_scenario(s);
    ++kept;
  }
  for (const auto& p : legal_list) {
    if (!seen_prims.count(p)) {
      std::fprintf(stderr, "corpus misses primitive %s\n", p.c_str());
      return 1;
    }
  }
  if (open_loop == 0 || open_loop == kept) {
    std::fprintf(stderr, "corpus lacks closed- or open-loop cells\n");
    return 1;
  }
  std::ofstream f(argv[1], std::ios::binary);
  f << out;
  if (!f.flush()) return 1;
  std::printf("%d scenarios (%d open-loop) -> %s\n", kept, open_loop, argv[1]);
  return 0;
}
