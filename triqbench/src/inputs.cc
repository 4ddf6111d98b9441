#include "inputs.h"

#include <algorithm>
#include <memory>
#include <set>

#include "owl/generator.h"
#include "owl/rdf_mapping.h"
#include "rdf/graph.h"
#include "rdf/turtle.h"

namespace triqbench {

namespace {

constexpr int kClasses = 40;
constexpr int kProperties = 8;
constexpr int kIndividuals = 4000;
/// The TBox is the same for every seed: random TBoxes of this size range
/// from a 0.2 M-fact closure that takes a second or two to ones that do
/// not finish in minutes, so a seeded TBox would measure a different
/// workload per seed. The seed drives the ABox, the query pool and the
/// writer's batches.
constexpr uint64_t kSchemaSeed = 42;

std::string Ind(std::mt19937_64& rng) {
  return "ind" + std::to_string(rng() % kIndividuals);
}
std::string Cls(std::mt19937_64& rng) {
  return "class" + std::to_string(rng() % kClasses);
}
std::string Prop(std::mt19937_64& rng) {
  return "prop" + std::to_string(rng() % kProperties);
}

/// The five shapes the entailment regime translates differently: BGP,
/// AND, OPT, UNION with a blank node, FILTER.
constexpr size_t kShapes = 5;

/// One pattern of the given shape (0 to kShapes - 1). Each is anchored at
/// an individual so answers stay small and the cost is the translation
/// and query-overlay chase, not result transfer.
std::string RandomPattern(size_t shape, std::mt19937_64& rng) {
  std::string a = Ind(rng);
  switch (shape) {
    case 0:
      return "{ " + a + " " + Prop(rng) + " ?y . ?y rdf:type ?c }";
    case 1:
      return "AND({ " + a + " " + Prop(rng) + " ?y }, { ?y " + Prop(rng) +
             " ?z })";
    case 2:
      return "OPT({ " + a + " rdf:type ?c }, { " + a + " " + Prop(rng) +
             " ?z })";
    case 3:
      return "UNION({ " + a + " " + Prop(rng) + " _:b . " + a +
             " rdf:type ?c }, { ?x " + Prop(rng) + " " + a + " })";
    default:
      return "FILTER({ " + a + " " + Prop(rng) + " ?y . ?y rdf:type ?c }, !(?c = " +
             Cls(rng) + "))";
  }
}

}  // namespace

std::mt19937_64 Stream(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream), 0x7b1du};
  return std::mt19937_64(seq);
}

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;

  auto dict = std::make_shared<triq::Dictionary>();
  triq::owl::RandomOntologyOptions options;
  options.num_classes = kClasses;
  options.num_properties = kProperties;
  options.num_individuals = kIndividuals;
  options.num_subclass_axioms = 60;
  options.num_subproperty_axioms = 8;
  options.num_class_assertions = 4000;
  options.num_property_assertions = 8000;
  options.seed = kSchemaSeed;
  triq::owl::Ontology schema = triq::owl::RandomOntology(options, dict.get());
  options.seed = seed;
  triq::owl::Ontology data = triq::owl::RandomOntology(options, dict.get());

  // The schema's TBox with this seed's ABox (at kSchemaSeed, exactly
  // RandomOntology's own output).
  using Kind = triq::owl::Axiom::Kind;
  triq::owl::Ontology ontology;
  for (triq::SymbolId c : schema.classes()) ontology.DeclareClass(c);
  for (triq::SymbolId p : schema.properties()) ontology.DeclareProperty(p);
  for (const triq::owl::Axiom& a : schema.axioms()) {
    if (a.kind == Kind::kSubClassOf) ontology.AddSubClassOf(a.class1, a.class2);
    if (a.kind == Kind::kSubPropertyOf) {
      ontology.AddSubPropertyOf(a.prop1, a.prop2);
    }
  }
  for (const triq::owl::Axiom& a : data.axioms()) {
    if (a.kind == Kind::kClassAssertion) {
      ontology.AddClassAssertion(a.class1, a.individual1);
    }
    if (a.kind == Kind::kPropertyAssertion) {
      ontology.AddPropertyAssertion(a.prop1.property, a.individual1,
                                    a.individual2);
    }
  }
  triq::rdf::Graph graph(dict);
  triq::owl::OntologyToGraph(ontology, &graph);
  inputs.turtle = triq::rdf::WriteTurtle(graph);
  inputs.triples = graph.size();

  // Shapes cycle through the Zipf ranks, so every seed asks each shape
  // equally often at every popularity; the seed picks anchors, properties
  // and classes.
  std::mt19937_64 rng = Stream(seed, 0xb00c);
  std::set<std::string> seen;
  while (inputs.pool.size() < kPoolSize) {
    std::string pattern = RandomPattern(inputs.pool.size() % kShapes, rng);
    if (seen.insert(pattern).second) inputs.pool.push_back(pattern);
  }
  double total = 0;
  for (size_t i = 1; i <= kPoolSize; ++i) total += 1.0 / static_cast<double>(i);
  double acc = 0;
  for (size_t i = 1; i <= kPoolSize; ++i) {
    acc += 1.0 / static_cast<double>(i) / total;
    inputs.zipf_cdf.push_back(acc);
  }
  inputs.zipf_cdf.back() = 1.0;
  return inputs;
}

size_t DrawQuery(const Inputs& inputs, std::mt19937_64& rng) {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(inputs.zipf_cdf.begin(), inputs.zipf_cdf.end(), u);
  return std::min<size_t>(it - inputs.zipf_cdf.begin(), kPoolSize - 1);
}

std::vector<std::string> WriterBatch(uint64_t seed, uint64_t batch) {
  std::mt19937_64 rng = Stream(seed, 0x10000 + batch);
  std::vector<std::string> out;
  for (int i = 0; i < 8; ++i) out.push_back(Ind(rng) + " " + Prop(rng) + " " + Ind(rng));
  for (int i = 0; i < 8; ++i) out.push_back(Ind(rng) + " rdf:type " + Cls(rng));
  return out;
}

std::string CanonicalMapping(const std::string& rendered) {
  std::string body = rendered;
  if (!body.empty() && body.front() == '{') body.erase(0, 1);
  if (!body.empty() && body.back() == '}') body.pop_back();
  std::vector<std::string> entries;
  size_t start = 0;
  while (start < body.size()) {
    size_t comma = body.find(", ", start);
    if (comma == std::string::npos) comma = body.size();
    entries.push_back(body.substr(start, comma - start));
    start = comma + 2;
  }
  std::sort(entries.begin(), entries.end());
  std::string out = "{";
  for (size_t i = 0; i < entries.size(); ++i) {
    out += (i > 0 ? ", " : "") + entries[i];
  }
  return out + "}";
}

std::vector<std::string> CanonicalRows(const triq::sparql::MappingSet& set,
                                       const triq::Dictionary& dict) {
  std::vector<std::string> rows;
  for (const triq::sparql::SparqlMapping& m : set.mappings()) {
    rows.push_back(CanonicalMapping(m.ToString(dict)));
  }
  return rows;
}

}  // namespace triqbench
