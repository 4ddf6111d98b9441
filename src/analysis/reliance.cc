#include "analysis/reliance.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "datalog/atom.h"
#include "datalog/rule.h"

namespace triq::analysis {

using datalog::Atom;
using datalog::PredicateId;
using datalog::Program;
using datalog::Rule;

RelianceGraph::RelianceGraph(const Program& program) {
  const std::vector<Rule>& rules = program.rules();
  const size_t n = rules.size();
  positive_.assign(n, {});
  negative_.assign(n, {});

  // Index: predicate -> rules reading it (positively / negated).
  std::unordered_map<PredicateId, std::vector<uint32_t>> positive_readers;
  std::unordered_map<PredicateId, std::vector<uint32_t>> negative_readers;
  for (size_t r = 0; r < n; ++r) {
    for (const Atom& atom : rules[r].body) {
      auto& readers = atom.negated ? negative_readers : positive_readers;
      readers[atom.predicate].push_back(static_cast<uint32_t>(r));
    }
  }

  auto dedup = [](std::vector<uint32_t>* v) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  };

  for (size_t r = 0; r < n; ++r) {
    for (const Atom& head : rules[r].head) {
      auto pos = positive_readers.find(head.predicate);
      if (pos != positive_readers.end()) {
        positive_[r].insert(positive_[r].end(), pos->second.begin(),
                            pos->second.end());
      }
      auto neg = negative_readers.find(head.predicate);
      if (neg != negative_readers.end()) {
        negative_[r].insert(negative_[r].end(), neg->second.begin(),
                            neg->second.end());
      }
    }
    dedup(&positive_[r]);
    dedup(&negative_[r]);
  }

  std::vector<std::vector<uint32_t>> adj(n);
  for (size_t r = 0; r < n; ++r) adj[r] = positive_[r];
  scc_ = common::StronglyConnectedComponents(adj);
}

}  // namespace triq::analysis
