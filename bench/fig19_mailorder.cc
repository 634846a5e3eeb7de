// Fig. 19: real-world (mail-order) data — performance comparison.
// 61,105 dollar amounts on [0, 500] inserted in random order; X axis:
// memory 0.25 .. 4 KB. Series: AC, DC, DADO.
// (The proprietary trace is replaced by a synthetic spiky equivalent —
// README "Substitutions", item 1.)
// Paper shape: matches Fig. 8, except DADO's error declines slower than
// 1/B because every spike wants its own bucket.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace dynhist;
  using namespace dynhist::bench;
  const Options options = Options::FromArgs(argc, argv);
  const std::vector<std::string> algos = {"AC", "DC", "DADO"};
  RunSweep(
      "Fig. 19 — mail-order data (KS vs memory [KB])", "Memory[KB]",
      {0.25, 0.5, 1.0, 2.0, 3.0, 4.0}, algos, options.seeds,
      [&](double x, std::uint64_t seed) {
        Rng rng(seed * 104'729 + 59);
        const auto stream =
            MakeRandomInsertStream(MakeMailOrderData(seed), rng);
        std::vector<double> row;
        for (const auto& algo : algos) {
          row.push_back(RunDynamicKs(algo, Kb(x), stream,
                                     kMailOrderDomainSize, seed));
        }
        return row;
      });
  return 0;
}
