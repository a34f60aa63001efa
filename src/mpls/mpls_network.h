// MplsRouter and chain wiring for the Figure 8 / §5.1 experiments.
#pragma once

#include <memory>
#include <unordered_map>

#include "core/clue_analyzer.h"
#include "lookup/factory.h"
#include "mpls/label_table.h"
#include "rib/fib.h"

namespace cluert::mpls {

// A label-switching router with topology-based bindings and, optionally,
// the §5.1 clue integration for its aggregation points.
template <typename A>
class MplsRouter {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Options {
    // Base method used for the full IP lookup at aggregation points.
    lookup::Method method = lookup::Method::kPatricia;
    // §5.1: at aggregation points, continue from the clue implied by the
    // label instead of doing a full lookup.
    bool clue_integrated = false;
  };

  // The Claim-1 neighbor index of the upstream table: a router integrates
  // the clues of one upstream neighbor.
  static constexpr NeighborIndex kUpstream = 0;

  MplsRouter(RouterId id, rib::Fib<A> fib, const Options& options)
      : id_(id),
        options_(options),
        fib_(std::move(fib)),
        suite_(std::vector<MatchT>(fib_.entries().begin(),
                                   fib_.entries().end())) {
    // Bind one label per FEC (= per table prefix), in table order.
    for (const MatchT& e : fib_.entries()) {
      LabelEntry<A> entry;
      entry.fec = e.prefix;
      entry.next_hop = e.next_hop;
      const auto* v = suite_.binaryTrie().findVertex(e.prefix);
      entry.aggregation_point = v != nullptr && !v->isLeaf();
      labels_.bind(std::move(entry));
      label_of_.emplace(e.prefix, static_cast<Label>(labels_.size() - 1));
    }
  }

  RouterId id() const { return id_; }
  const rib::Fib<A>& fib() const { return fib_; }
  lookup::LookupSuite<A>& suite() { return suite_; }

  // The label this router advertises for `fec` (kNoLabel if unbound).
  Label labelFor(const PrefixT& fec) const {
    const auto it = label_of_.find(fec);
    return it == label_of_.end() ? kNoLabel : it->second;
  }

  // Control plane: resolve each binding's out-label against the downstream
  // neighbor that advertised the FEC (label swapping), and — when clue
  // integration is on — precompute the clue continuation for aggregation
  // points against the *upstream* neighbor's table (the label arrived from
  // upstream, so the implied clue is the upstream BMP).
  void peerDownstream(const MplsRouter& downstream) {
    for (Label l = 0; l < labels_.size(); ++l) {
      LabelEntry<A>* e = labels_.mutableAt(l);
      e->out_label = downstream.labelFor(e->fec);
    }
  }

  void integrateClues(const trie::BinaryTrie<A>& upstream_table) {
    suite_.annotateNeighbor(kUpstream, upstream_table);
    core::ClueAnalyzer<A> analyzer(suite_.binaryTrie(), &upstream_table);
    const auto& engine = suite_.engine(options_.method);
    for (Label l = 0; l < labels_.size(); ++l) {
      LabelEntry<A>* e = labels_.mutableAt(l);
      const auto a = analyzer.analyzeAdvance(e->fec);
      e->fd = a.fd;
      e->ptr_empty = a.kase != core::ClueCase::kSearch;
      labels_.setContinuation(
          l, e->ptr_empty ? lookup::Continuation{}
                          : engine.makeContinuation(e->fec, a.candidates,
                                                    &labels_.candidates()));
    }
  }

  struct Decision {
    std::optional<MatchT> match;
    Label out_label = kNoLabel;
    bool did_full_lookup = false;
    bool used_clue = false;
  };

  // Forwards a labelled packet. Plain MPLS: one label-table access, plus a
  // full IP lookup at aggregation points (Figure 8). Clue-integrated MPLS
  // (§5.1): the aggregation-point lookup continues from the FEC-as-clue.
  Decision forward(Label label, const A& dest, mem::AccessCounter& acc) {
    Decision d;
    const LabelEntry<A>* e = labels_.at(label, acc);
    if (e == nullptr) return d;
    if (!e->aggregation_point) {
      d.match = MatchT{e->fec, e->next_hop};
      d.out_label = e->out_label;
      return d;
    }
    if (options_.clue_integrated) {
      d.used_clue = true;
      if (e->ptr_empty) {
        d.match = e->fd;
      } else {
        const auto found = suite_.engine(options_.method)
                               .continueLookup(e->cont, e->fec.length(), dest,
                                               kUpstream, acc);
        d.match = found ? found : e->fd;
      }
    } else {
      d.did_full_lookup = true;
      d.match = suite_.engine(options_.method).lookup(dest, acc);
    }
    if (d.match) {
      const Label own = labelFor(d.match->prefix);
      d.out_label = own;  // in a full system: the downstream label for it
    }
    return d;
  }

 private:
  RouterId id_;
  Options options_;
  rib::Fib<A> fib_;
  lookup::LookupSuite<A> suite_;
  LabelTable<A> labels_;
  std::unordered_map<PrefixT, Label> label_of_;
};

using MplsRouter4 = MplsRouter<ip::Ip4Addr>;

}  // namespace cluert::mpls
