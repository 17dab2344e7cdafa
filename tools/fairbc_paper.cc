// Reproduces the paper's evaluation (Tables I–II, Figs. 2–8 and 11–12,
// ablations A1–A2) on the synthetic stand-in datasets and prints one text
// table per experiment row of src/bench_util/paper.cc.
//
// Usage:
//   fairbc_paper                  # every experiment
//   fairbc_paper fig3 table2 ...  # the named experiments, in that order
//
// FAIRBC_SCALE (default 1.0) scales the datasets; FAIRBC_TIME_BUDGET
// (seconds, default 8) bounds each engine run, and runs cut by it print
// "INF" with their counters marked "+". The deterministic counters are
// asserted at FAIRBC_SCALE=0.1 by paper_claims_test.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util/paper.h"

int main(int argc, char** argv) {
  const std::vector<std::string> known = fairbc::PaperExperimentNames();
  std::vector<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& name : wanted) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::cerr << "unknown experiment: " << name << "\nexperiments:";
      for (const std::string& k : known) std::cerr << ' ' << k;
      std::cerr << '\n';
      return 2;
    }
  }
  if (wanted.empty()) wanted = known;

  const fairbc::PaperConfig config = fairbc::PaperConfigFromEnv();
  std::cout << "fairbc_paper: scale=" << config.scale
            << " budget=" << config.budget_seconds << "s\n";
  fairbc::PaperRunner runner(config);
  for (const std::string& name : wanted) {
    for (const fairbc::PaperTable& table : runner.RunNamed(name)) {
      fairbc::PrintPaperTable(table, std::cout);
    }
  }
  return 0;
}
