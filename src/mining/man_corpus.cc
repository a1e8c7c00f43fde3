#include "mining/man_corpus.h"

#include <algorithm>

namespace sash::mining {

static_assert(std::adjacent_find(std::begin(kManPages), std::end(kManPages),
                                 [](const ManPage& a, const ManPage& b) {
                                   return a.name >= b.name;
                                 }) == std::end(kManPages),
              "kManPages must stay strictly sorted by name: the cache's corpus "
              "fingerprint hashes it in the order ManCorpus() iterates");

const std::map<std::string, std::string>& ManCorpus() {
  static const std::map<std::string, std::string> kCorpus = [] {
    std::map<std::string, std::string> corpus;
    for (const ManPage& page : kManPages) {
      corpus.emplace(page.name, page.text);
    }
    return corpus;
  }();
  return kCorpus;
}

std::vector<std::string> DocumentedCommands() {
  std::vector<std::string> out;
  for (const ManPage& page : kManPages) {
    out.emplace_back(page.name);
  }
  return out;
}

}  // namespace sash::mining
