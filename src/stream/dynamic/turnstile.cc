#include "stream/dynamic/turnstile.h"

#include <unordered_map>
#include <unordered_set>

namespace cyclestream {

// Same construction as FingerprintEdgeStream (checkpoint.cc) with a
// turnstile-specific salt and the op byte folded in per record, so a
// snapshot can never be replayed against the same edges with different
// operations — or against the plain edge stream they came from.
std::uint64_t FingerprintTurnstileStream(
    std::span<const TurnstileUpdate> updates) {
  std::uint64_t h =
      Mix64(0x54524e53ull ^ static_cast<std::uint64_t>(updates.size()));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    h = Mix64(h ^ updates[i].edge.Key());
    h = Mix64(h ^ static_cast<std::uint64_t>(updates[i].op));
    h = Mix64(h ^ static_cast<std::uint64_t>(i));
  }
  return h;
}

TurnstileStream TurnstileFromEdges(std::span<const Edge> edges) {
  TurnstileStream out;
  out.reserve(edges.size());
  for (const Edge& e : edges) out.emplace_back(e, TurnstileOp::kInsert);
  return out;
}

std::vector<Edge> LiveEdges(std::span<const TurnstileUpdate> updates) {
  std::unordered_map<std::uint64_t, std::int64_t> counts;
  counts.reserve(updates.size());
  std::vector<Edge> order;  // Distinct edges in first-insertion order.
  std::unordered_set<std::uint64_t> seen;
  for (const TurnstileUpdate& u : updates) {
    const std::uint64_t key = u.edge.Key();
    if (u.op == TurnstileOp::kInsert) {
      ++counts[key];
      if (seen.insert(key).second) order.push_back(u.edge);
    } else {
      std::int64_t& c = counts[key];
      if (c > 0) --c;  // Unmatched deletes clamp (see header).
    }
  }
  std::vector<Edge> live;
  live.reserve(order.size());
  for (const Edge& e : order) {
    if (counts[e.Key()] > 0) live.push_back(e);
  }
  return live;
}

}  // namespace cyclestream
