#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

/// \file inputs.hpp
/// The benchmark's inputs, all made from the run's --seed at scale 1.0.
/// The program under test only ever sees the generated matrices and
/// right-hand sides.
///
/// The grid-based families (SuiteSparse*, iChol*, METIS*) come from the
/// harness generators, whose structure is fixed; the Erdős–Rényi and
/// narrow-band families are drawn from datagen with seeds derived from the
/// run's seed, in the shapes harness::erdosRenyiSet / narrowBandSet use.
/// Every right-hand side is drawn from the run's seed.

namespace perfbench {

struct MatrixSpec {
  std::string family;  ///< "SuiteSparse*", "iChol*", "METIS*", "ER", "NB"
  std::string name;    ///< harness matrix name, e.g. "grid2d_5pt_ic0"
  std::function<sts::sparse::CsrMatrix()> make;
};

/// Every matrix of the named families, in family order. Families:
/// SuiteSparse*, iChol*, METIS*, ER, NB.
std::vector<MatrixSpec> familyMatrices(const std::vector<std::string>& families,
                                       std::uint64_t seed);

/// The specs whose names are listed, in the listed order (throws on a name
/// no family holds).
std::vector<MatrixSpec> namedMatrices(const std::vector<std::string>& names,
                                      std::uint64_t seed);

/// splitmix64 finalizer: derives independent streams from (seed, salt).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/// Seeded right-hand side with entries in [-1, -0.1] U [0.1, 1].
std::vector<double> randomVector(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
