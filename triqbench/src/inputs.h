// Seeded inputs shared by every workload: one OWL 2 QL core ontology
// (a fixed TBox and a seeded ABox) serialized as Turtle, a pool of
// distinct SPARQL patterns drawn Zipf(s = 1), and the writer's ADD
// batches. Everything is a pure function of the seed; the program under
// test only ever sees the generated text.
#ifndef TRIQBENCH_INPUTS_H_
#define TRIQBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/dictionary.h"
#include "sparql/mapping.h"

namespace triqbench {

inline constexpr size_t kPoolSize = 512;

struct Inputs {
  uint64_t seed = 0;
  std::string turtle;  // one "s p o ." statement per line
  size_t triples = 0;
  std::vector<std::string> pool;  // kPoolSize distinct patterns
  std::vector<double> zipf_cdf;   // P(rank <= i), ranks = pool order
};

Inputs MakeInputs(uint64_t seed);

/// An independent random stream per (seed, purpose); reader k of a run
/// uses stream k, so its query sequence is fixed by the seed.
std::mt19937_64 Stream(uint64_t seed, uint64_t stream);

/// Index into `inputs.pool` drawn Zipf(s = 1).
size_t DrawQuery(const Inputs& inputs, std::mt19937_64& rng);

/// One writer batch: 8 property and 8 type assertions, each a
/// whitespace-separated "s p o" triple over the ontology's vocabulary.
std::vector<std::string> WriterBatch(uint64_t seed, uint64_t batch);

/// Canonical text of one solution mapping, independent of the
/// dictionary ids that order its entries: "{?x->a, ?y->b}" with the
/// entries sorted by text. Accepts SparqlMapping::ToString output.
std::string CanonicalMapping(const std::string& rendered);

/// Canonical lines of a mapping set (one per solution).
std::vector<std::string> CanonicalRows(const triq::sparql::MappingSet& set,
                                       const triq::Dictionary& dict);

}  // namespace triqbench

#endif  // TRIQBENCH_INPUTS_H_
