// Large-MBP search: find only the maximal k-biplexes whose sides meet a
// size threshold, using the Section 5 extension with (θ−k)-core
// pre-reduction — without enumerating all MBPs first.
//
//   ./large_biplex_search [theta] [k]
#include <cstdint>
#include <iostream>
#include <string>

#include "api/enumerator.h"
#include "graph/generators.h"
#include "util/random.h"

using namespace kbiplex;

int main(int argc, char** argv) {
  const size_t theta = argc >= 2 ? std::stoul(argv[1]) : 5;
  const int k = argc >= 3 ? std::stoi(argv[2]) : 1;

  // A sparse background graph with two planted dense communities.
  Rng rng(123);
  BipartiteGraph g = ErdosRenyiBipartite(400, 400, 900, &rng);
  g = PlantDenseBlock(g, 8, 9, 0.95, &rng);
  g = PlantDenseBlock(g, 7, 7, 1.0, &rng);

  std::cout << "Graph: |L| = " << g.NumLeft() << ", |R| = " << g.NumRight()
            << ", |E| = " << g.NumEdges() << "\n"
            << "Searching maximal " << k
            << "-biplexes with both sides >= " << theta << "\n\n";

  EnumerateRequest req;
  req.algorithm = "large-mbp";
  req.k = KPair::Uniform(k);
  req.theta_left = theta;
  req.theta_right = theta;
  size_t count = 0;
  CallbackSink sink([&](const Biplex& b) {
    ++count;
    if (count <= 10) {
      std::cout << "  #" << count << ": " << b.left.size() << " x "
                << b.right.size() << " (left ids " << b.left.front() << ".."
                << b.left.back() << ")\n";
    }
    return true;
  });
  EnumerateStats stats = Enumerate(g, req, &sink);
  if (!stats.ok()) {
    std::cerr << "error: " << stats.error << "\n";
    return 1;
  }
  if (count > 10) std::cout << "  ... and " << count - 10 << " more\n";

  std::cout << "\n(θ−k)-core reduction kept " << stats.large_mbp->core_left
            << " + " << stats.large_mbp->core_right << " of "
            << g.NumLeft() + g.NumRight() << " vertices\n"
            << "Large MBPs found: " << count << " in " << stats.seconds
            << " s\n";
  return 0;
}
