#include "src/topo/partition.hpp"

#include <algorithm>

namespace burst {

namespace {

LpPartition sequential(std::string why) {
  LpPartition part;
  part.note = std::move(why);
  return part;
}

}  // namespace

LpPartition make_lp_partition(const TopoSpec& spec, int requested) {
  if (requested <= 1) return LpPartition{};
  const TopoGraph graph(spec);
  const int total = graph.nodes();

  // Classify nodes by the flow endpoints they host. A node that is both a
  // source and a destination cannot sit in a source shard (its sender and
  // sink populations would straddle the cut), so it counts as interior.
  std::vector<char> is_src(static_cast<std::size_t>(total), 0);
  std::vector<char> is_dst(static_cast<std::size_t>(total), 0);
  for (const MemberFlow& f : graph.flows()) {
    is_src[static_cast<std::size_t>(f.src)] = 1;
    is_dst[static_cast<std::size_t>(f.dst)] = 1;
  }
  std::vector<int> sources;
  std::vector<int> interiors;
  std::vector<int> sinks;
  for (int n = 0; n < total; ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (is_src[i] && !is_dst[i]) {
      sources.push_back(n);
    } else if (is_dst[i] && !is_src[i]) {
      sinks.push_back(n);
    } else {
      interiors.push_back(n);
    }
  }
  if (sources.empty() || sources.size() == static_cast<std::size_t>(total)) {
    return sequential("lp: topology has no source/rest cut; running 1 LP");
  }

  LpPartition part;
  part.node_lp.assign(static_cast<std::size_t>(total), 0);

  // Source shards: contiguous blocks over the source nodes in id order
  // (deterministic, and it keeps a dumbbell's client i in the same shard
  // for every run at a given shard count).
  int src_shards = requested == 2 ? 1 : requested - 2;
  if (src_shards > static_cast<int>(sources.size())) {
    src_shards = static_cast<int>(sources.size());
    part.note = "lp: fewer source nodes than source shards; clamped";
  }
  for (std::size_t i = 0; i < sources.size(); ++i) {
    part.node_lp[static_cast<std::size_t>(sources[i])] = static_cast<int>(
        i * static_cast<std::size_t>(src_shards) / sources.size());
  }
  int next_lp = src_shards;
  if (requested == 2) {
    // Two-way split: everything that is not a source shares one LP.
    for (const int n : interiors) part.node_lp[static_cast<std::size_t>(n)] = next_lp;
    for (const int n : sinks) part.node_lp[static_cast<std::size_t>(n)] = next_lp;
    ++next_lp;
  } else {
    if (!interiors.empty()) {
      for (const int n : interiors) {
        part.node_lp[static_cast<std::size_t>(n)] = next_lp;
      }
      ++next_lp;
    }
    if (!sinks.empty()) {
      for (const int n : sinks) part.node_lp[static_cast<std::size_t>(n)] = next_lp;
      ++next_lp;
    }
  }
  part.shards = next_lp;
  if (part.shards < requested && part.note.empty()) {
    part.note = "lp: topology shape supports only " +
                std::to_string(part.shards) + " LPs; clamped";
  }
  if (part.shards <= 1) {
    return sequential("lp: partition collapsed to 1 LP; running sequentially");
  }

  // Lookahead = min propagation delay over the cut links. The window
  // protocol is only safe (and only terminates) when it is positive.
  Time lookahead = kTimeNever;
  for (const MemberLink& l : graph.links()) {
    if (part.lp_of(l.from) == part.lp_of(l.to)) continue;
    ++part.cut_links;
    lookahead = std::min(lookahead, l.delay);
  }
  if (part.cut_links == 0) {
    return sequential("lp: no links cross the partition; running 1 LP");
  }
  if (!(lookahead > 0.0) || lookahead == kTimeNever) {
    return sequential(
        "lp: a cut link has zero propagation delay (no lookahead); "
        "running 1 LP");
  }
  part.lookahead = lookahead;
  return part;
}

}  // namespace burst
