#include "inputs.hpp"

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>

#include "datagen/random_matrices.hpp"
#include "harness/datasets.hpp"

namespace perfbench {

using sts::sparse::CsrMatrix;

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> randomVector(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> magnitude(0.1, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = magnitude(rng) * ((rng() & 1) ? 1.0 : -1.0);
  return v;
}

namespace {

constexpr double kScale = 1.0;
constexpr sts::index_t kRandomRows = 40000;  // harness size at scale 1.0

/// A harness family shares one lazily generated dataset across its specs,
/// so generating its k-th matrix does not regenerate the other five.
void addHarnessFamily(std::vector<MatrixSpec>& out, const std::string& family,
                      sts::harness::Dataset (*generate)(double)) {
  auto cache = std::make_shared<sts::harness::Dataset>();
  const auto names = generate(0.05);  // cheap probe for the names
  for (std::size_t i = 0; i < names.size(); ++i) {
    out.push_back({family, names[i].name, [cache, generate, i] {
                     if (cache->empty()) *cache = generate(kScale);
                     return (*cache)[i].lower;
                   }});
  }
}

void addErdosRenyi(std::vector<MatrixSpec>& out, std::uint64_t seed) {
  int tag = 0;
  for (const double degree : {5.0, 25.0, 100.0}) {
    for (const char variant : {'A', 'B'}) {
      const double p = 2.0 * degree / static_cast<double>(kRandomRows);
      const std::uint64_t s = mixSeed(seed, 100 + static_cast<unsigned>(tag++));
      out.push_back({"ER",
                     "er_d" + std::to_string(static_cast<int>(degree)) + "_" +
                         variant,
                     [p, s] {
                       return sts::datagen::erdosRenyiLower(
                           {.n = kRandomRows, .p = p, .seed = s});
                     }});
    }
  }
}

void addNarrowBand(std::vector<MatrixSpec>& out, std::uint64_t seed) {
  const std::pair<double, double> params[] = {
      {0.14, 10.0}, {0.05, 20.0}, {0.03, 42.0}};  // the paper's (p, B)
  int tag = 0;
  for (const auto& [p, b] : params) {
    for (const char variant : {'A', 'B'}) {
      const std::uint64_t s = mixSeed(seed, 200 + static_cast<unsigned>(tag++));
      out.push_back({"NB",
                     "nb_p" + std::to_string(static_cast<int>(p * 100)) +
                         "_b" + std::to_string(static_cast<int>(b)) + "_" +
                         variant,
                     [p, b, s] {
                       return sts::datagen::narrowBandLower(
                           {.n = kRandomRows, .p = p, .b = b, .seed = s});
                     }});
    }
  }
}

}  // namespace

std::vector<MatrixSpec> familyMatrices(const std::vector<std::string>& families,
                                       std::uint64_t seed) {
  std::vector<MatrixSpec> out;
  for (const auto& family : families) {
    if (family == "SuiteSparse*") {
      addHarnessFamily(out, family, sts::harness::suiteSparseStandin);
    } else if (family == "iChol*") {
      addHarnessFamily(out, family, sts::harness::icholStandin);
    } else if (family == "METIS*") {
      addHarnessFamily(out, family, sts::harness::metisStandin);
    } else if (family == "ER") {
      addErdosRenyi(out, seed);
    } else if (family == "NB") {
      addNarrowBand(out, seed);
    } else {
      throw std::invalid_argument("unknown matrix family: " + family);
    }
  }
  return out;
}

std::vector<MatrixSpec> namedMatrices(const std::vector<std::string>& names,
                                      std::uint64_t seed) {
  const auto all =
      familyMatrices({"SuiteSparse*", "iChol*", "METIS*", "ER", "NB"}, seed);
  std::vector<MatrixSpec> out;
  for (const auto& name : names) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const auto& s) { return s.name == name; });
    if (it == all.end()) throw std::invalid_argument("unknown matrix: " + name);
    out.push_back(*it);
  }
  return out;
}

}  // namespace perfbench
