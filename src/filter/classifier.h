// Baseline packet classifiers with memory-access accounting: a linear scan
// (the reference and worst case) and a hierarchical-trie classifier (the
// standard 1999-era structure: a destination trie whose marked vertices hang
// source tries).
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "filter/filter.h"
#include "mem/access_counter.h"
#include "trie/binary_trie.h"

namespace cluert::filter {

// Scans rules in decreasing priority order; one access per rule examined;
// stops at the first match (rules are kept sorted).
template <typename A>
class LinearClassifier {
 public:
  explicit LinearClassifier(std::vector<FilterRule<A>> rules)
      : rules_(std::move(rules)) {
    std::sort(rules_.begin(), rules_.end(),
              [](const FilterRule<A>& x, const FilterRule<A>& y) {
                return x.priority > y.priority;
              });
  }

  ClassifyResult<A> classify(const A& src, const A& dst,
                             mem::AccessCounter& acc) const {
    for (const FilterRule<A>& r : rules_) {
      acc.add(mem::Region::kFibEntry);
      if (r.matches(src, dst)) return r;
    }
    return std::nullopt;
  }

  const std::vector<FilterRule<A>>& rules() const { return rules_; }

 private:
  std::vector<FilterRule<A>> rules_;  // sorted by decreasing priority
};

// Hierarchical tries: walk the destination trie along the packet's
// destination address; every marked vertex carries the (priority-sorted)
// rules whose dst prefix is that vertex, organised as a source trie. One
// access per trie vertex visited in either dimension.
template <typename A>
class HierarchicalClassifier {
 public:
  explicit HierarchicalClassifier(const std::vector<FilterRule<A>>& rules) {
    for (const FilterRule<A>& r : rules) {
      dst_trie_.insert(r.dst, 0);
      Bucket*& b = bucket_of_[r.dst];
      if (b == nullptr) {
        buckets_.push_back(std::make_unique<Bucket>());
        b = buckets_.back().get();
      }
      b->src_trie.insert(r.src, 0);
      b->by_src[r.src].push_back(r);
    }
    for (auto& b : buckets_) {
      for (auto& [src, list] : b->by_src) {
        std::sort(list.begin(), list.end(),
                  [](const FilterRule<A>& x, const FilterRule<A>& y) {
                    return x.priority > y.priority;
                  });
      }
    }
  }

  ClassifyResult<A> classify(const A& src, const A& dst,
                             mem::AccessCounter& acc) const {
    ClassifyResult<A> best;
    const auto* dv = dst_trie_.root();
    int depth = 0;
    while (dv != nullptr) {
      acc.add(mem::Region::kTrieNode);
      if (dv->marked) {
        scanBucket(dv->prefix, src, acc, best);
      }
      if (depth == A::kBits) break;
      dv = dst_trie_.child(dv, dst.bit(depth));
      ++depth;
    }
    return best;
  }

 private:
  struct Bucket {
    trie::BinaryTrie<A> src_trie;
    std::unordered_map<ip::Prefix<A>, std::vector<FilterRule<A>>> by_src;
  };

  void scanBucket(const ip::Prefix<A>& dst_prefix, const A& src,
                  mem::AccessCounter& acc, ClassifyResult<A>& best) const {
    const auto it = bucket_of_.find(dst_prefix);
    if (it == bucket_of_.end()) return;
    const Bucket& b = *it->second;
    const auto* sv = b.src_trie.root();
    int depth = 0;
    while (sv != nullptr) {
      acc.add(mem::Region::kTrieNode);
      if (sv->marked) {
        const auto lit = b.by_src.find(sv->prefix);
        if (lit != b.by_src.end()) {
          for (const FilterRule<A>& r : lit->second) {
            acc.add(mem::Region::kFibEntry);
            if (!best || r.priority > best->priority) {
              best = r;
            }
            break;  // lists are priority-sorted; the head is the best here
          }
        }
      }
      if (depth == A::kBits) break;
      sv = b.src_trie.child(sv, src.bit(depth));
      ++depth;
    }
  }

  trie::BinaryTrie<A> dst_trie_;
  std::unordered_map<ip::Prefix<A>, Bucket*> bucket_of_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
};

}  // namespace cluert::filter
