#include "extensions/regex_pattern.h"

#include <utility>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/wire_format.h"
#include "graph/graph_io.h"

namespace gpm {

RegexQuery::RegexQuery(Graph pattern) : pattern_(std::move(pattern)) {
  GPM_CHECK(pattern_.finalized());
  default_constraint_ = {RegexAtom{kAnyEdgeLabel, 1, 1}};
}

Status RegexQuery::SetConstraint(NodeId u, NodeId v, RegexPath path) {
  if (u >= pattern_.num_nodes() || v >= pattern_.num_nodes() ||
      !pattern_.HasEdge(u, v)) {
    return Status::InvalidArgument("no pattern edge (" + std::to_string(u) +
                                   ", " + std::to_string(v) + ")");
  }
  if (path.empty()) return Status::InvalidArgument("empty regex path");
  for (const RegexAtom& atom : path) {
    if (atom.min_reps > atom.max_reps)
      return Status::InvalidArgument("regex atom has min_reps > max_reps");
    // A set image takes one one-hop step per required repetition (and up
    // to one per allowed one); cap the count so an image stays a bounded
    // number of passes over the graph.
    const uint32_t effective =
        atom.max_reps == kUnboundedReps ? atom.min_reps : atom.max_reps;
    if (effective > 4096)
      return Status::InvalidArgument("regex repetition bound too large (>4096)");
  }
  constraints_[{u, v}] = std::move(path);
  return Status::OK();
}

const RegexPath& RegexQuery::ConstraintFor(NodeId u, NodeId v) const {
  auto it = constraints_.find({u, v});
  return it == constraints_.end() ? default_constraint_ : it->second;
}

uint64_t RegexQuery::ContentHash() const {
  // FNV-1a over the pattern hash, a regex tag (so a constraint-free
  // RegexQuery never collides with its plain pattern graph), and the
  // constraint map in its deterministic key order.
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (i * 8)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  mix(0x7265676578ULL);  // "regex"
  mix(pattern_.ContentHash());
  mix(constraints_.size());
  for (const auto& [edge, path] : constraints_) {
    mix((static_cast<uint64_t>(edge.first) << 32) | edge.second);
    mix(path.size());
    for (const RegexAtom& atom : path) {
      mix(atom.label);
      mix((static_cast<uint64_t>(atom.min_reps) << 32) | atom.max_reps);
    }
  }
  return h;
}

namespace {

using wire::PutU32;

Result<uint32_t> GetU32(const std::string& in, size_t* pos) {
  return wire::GetU32(in, pos, "regex query payload");
}

}  // namespace

std::string SerializeRegexQuery(const RegexQuery& query) {
  std::string out;
  const std::string graph_blob = SerializeGraph(query.pattern());
  PutU32(&out, static_cast<uint32_t>(graph_blob.size()));
  out += graph_blob;
  PutU32(&out, static_cast<uint32_t>(query.constraints().size()));
  for (const auto& [edge, path] : query.constraints()) {
    PutU32(&out, edge.first);
    PutU32(&out, edge.second);
    PutU32(&out, static_cast<uint32_t>(path.size()));
    for (const RegexAtom& atom : path) {
      PutU32(&out, atom.label);
      PutU32(&out, atom.min_reps);
      PutU32(&out, atom.max_reps);
    }
  }
  return out;
}

Result<RegexQuery> DeserializeRegexQuery(const std::string& bytes) {
  size_t pos = 0;
  GPM_ASSIGN_OR_RETURN(uint32_t graph_size, GetU32(bytes, &pos));
  if (pos + graph_size > bytes.size())
    return Status::Corruption("truncated regex query pattern blob");
  GPM_ASSIGN_OR_RETURN(Graph pattern,
                       DeserializeGraph(bytes.substr(pos, graph_size)));
  pos += graph_size;
  RegexQuery query(std::move(pattern));
  GPM_ASSIGN_OR_RETURN(uint32_t num_constraints, GetU32(bytes, &pos));
  for (uint32_t i = 0; i < num_constraints; ++i) {
    GPM_ASSIGN_OR_RETURN(uint32_t u, GetU32(bytes, &pos));
    GPM_ASSIGN_OR_RETURN(uint32_t v, GetU32(bytes, &pos));
    GPM_ASSIGN_OR_RETURN(uint32_t num_atoms, GetU32(bytes, &pos));
    // Each atom is 12 wire bytes: a count the remaining payload cannot
    // hold is corruption, not a reserve() of attacker-chosen gigabytes.
    if (num_atoms > (bytes.size() - pos) / 12)
      return Status::Corruption("regex atom count exceeds payload");
    RegexPath path;
    path.reserve(num_atoms);
    for (uint32_t j = 0; j < num_atoms; ++j) {
      RegexAtom atom;
      GPM_ASSIGN_OR_RETURN(atom.label, GetU32(bytes, &pos));
      GPM_ASSIGN_OR_RETURN(atom.min_reps, GetU32(bytes, &pos));
      GPM_ASSIGN_OR_RETURN(atom.max_reps, GetU32(bytes, &pos));
      path.push_back(atom);
    }
    GPM_RETURN_NOT_OK(query.SetConstraint(u, v, std::move(path)));
  }
  if (pos != bytes.size())
    return Status::Corruption("trailing bytes in regex query payload");
  return query;
}

namespace internal {

namespace {

// One one-hop step of `label` edges along `dir`: *next becomes the nodes
// one such edge away from `frontier`, restricted to *within when that is
// non-null (the image's last step). With `reached` non-null (an atom's
// union phase), nodes already in *reached are left out and the new ones
// are added to it. Returns whether *next is non-empty.
bool ImageStep(const Graph& g, EdgeLabel label, RegexImageDir dir,
               const DynamicBitset& frontier, DynamicBitset* next,
               DynamicBitset* reached, const DynamicBitset* within) {
  next->Reset();
  bool grew = false;
  auto keeps = [label](EdgeLabel l) {
    return label == kAnyEdgeLabel || l == label;
  };
  if (dir == RegexImageDir::kPost) {
    frontier.ForEach([&](size_t v) {
      auto nbrs = g.OutNeighbors(static_cast<NodeId>(v));
      auto labels = g.OutEdgeLabels(static_cast<NodeId>(v));
      for (size_t i = 0; i < nbrs.size(); ++i) {
        if (!keeps(labels[i])) continue;
        if (within != nullptr && !within->Test(nbrs[i])) continue;
        if (reached != nullptr) {
          if (reached->Test(nbrs[i])) continue;
          reached->Set(nbrs[i]);
        }
        next->Set(nbrs[i]);
        grew = true;
      }
    });
    return grew;
  }
  auto pull = [&](size_t v) {
    if (reached != nullptr && reached->Test(v)) return;
    auto nbrs = g.OutNeighbors(static_cast<NodeId>(v));
    auto labels = g.OutEdgeLabels(static_cast<NodeId>(v));
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (!keeps(labels[i]) || !frontier.Test(nbrs[i])) continue;
      if (reached != nullptr) reached->Set(v);
      next->Set(v);
      grew = true;
      return;
    }
  };
  if (within != nullptr) {
    within->ForEach(pull);
  } else {
    for (size_t v = 0; v < g.num_nodes(); ++v) pull(v);
  }
  return grew;
}

}  // namespace

void RegexImage(const Graph& g, const RegexPath& path, RegexImageDir dir,
                DynamicBitset* set, RegexImageScratch* scratch,
                const DynamicBitset* within) {
  const size_t n = g.num_nodes();
  GPM_CHECK_EQ(set->size(), n);
  scratch->frontier.Reinit(n);
  scratch->next.Reinit(n);
  const size_t k = path.size();
  for (size_t j = 0; j < k; ++j) {
    // Pre_{a1..ak} = Pre_{a1}(... Pre_{ak}(S)): backward images take the
    // atoms last to first.
    const RegexAtom& atom = path[dir == RegexImageDir::kPost ? j : k - 1 - j];
    // Only the image's last step can be restricted to *within: every
    // earlier layer feeds later ones.
    auto last_step = [&](uint32_t reps) {
      return j + 1 == k && reps == atom.max_reps ? within : nullptr;
    };
    if (set->None()) return;
    // L_min: exactly min_reps steps.
    for (uint32_t i = 0; i < atom.min_reps; ++i) {
      if (!ImageStep(g, atom.label, dir, *set, &scratch->next, nullptr,
                     last_step(i + 1))) {
        set->Reset();
        return;
      }
      std::swap(*set, scratch->next);
    }
    if (atom.max_reps == atom.min_reps) continue;
    // L_min ∪ ... ∪ L_max, one frontier of new nodes per step: the union
    // U_h grows by the image of its newest layer only, and once a step
    // adds nothing no later layer can.
    scratch->reached = *set;
    std::swap(*set, scratch->frontier);
    for (uint32_t h = atom.min_reps;
         atom.max_reps == kUnboundedReps || h < atom.max_reps; ++h) {
      if (!ImageStep(g, atom.label, dir, scratch->frontier, &scratch->next,
                     &scratch->reached, last_step(h + 1))) {
        break;
      }
      std::swap(scratch->frontier, scratch->next);
    }
    std::swap(*set, scratch->reached);
  }
  if (within != nullptr) *set &= *within;
}

void RegexFixpoint(const RegexQuery& query, const Graph& g, bool dual,
                   std::vector<DynamicBitset>* member,
                   RegexImageScratch* scratch) {
  const Graph& q = query.pattern();
  const size_t nq = q.num_nodes();
  GPM_CHECK_GE(member->size(), nq);
  std::vector<DynamicBitset>& m = *member;
  scratch->version.assign(nq, 1);
  scratch->seen.assign(2 * q.num_edges(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    size_t e = 0;  // condition index, in the same order every round
    for (NodeId u = 0; u < nq; ++u) {
      // m[u] &= image of m[other]; skipped while m[other] is unchanged
      // since the last read (m[u] only shrank after that AND).
      auto refine = [&](NodeId other, const RegexPath& path,
                        RegexImageDir dir) {
        uint64_t& seen = scratch->seen[e++];
        if (seen == scratch->version[other] || m[u].None()) return;
        seen = scratch->version[other];
        scratch->image = m[other];
        RegexImage(g, path, dir, &scratch->image, scratch, &m[u]);
        if (scratch->image.Count() != m[u].Count()) {
          std::swap(m[u], scratch->image);
          ++scratch->version[u];
          changed = true;
        }
      };
      for (NodeId u2 : q.OutNeighbors(u)) {
        refine(u2, query.ConstraintFor(u, u2), RegexImageDir::kPre);
      }
      if (!dual) continue;
      for (NodeId u1 : q.InNeighbors(u)) {
        refine(u1, query.ConstraintFor(u1, u), RegexImageDir::kPost);
      }
    }
  }
}

MatchRelation RegexRelation(const RegexQuery& query, const Graph& g,
                            bool dual) {
  const Graph& q = query.pattern();
  GPM_CHECK(g.finalized());
  const size_t nq = q.num_nodes();
  std::vector<DynamicBitset> member(nq);
  for (NodeId u = 0; u < nq; ++u) {
    member[u].Reinit(g.num_nodes());
    for (NodeId v : g.NodesWithLabel(q.label(u))) member[u].Set(v);
  }
  RegexImageScratch scratch;
  RegexFixpoint(query, g, dual, &member, &scratch);
  MatchRelation rel(nq);
  for (NodeId u = 0; u < nq; ++u) {
    member[u].ForEach(
        [&](size_t v) { rel.sim[u].push_back(static_cast<NodeId>(v)); });
  }
  return rel;
}

}  // namespace internal

MatchRelation ComputeRegexSimulation(const RegexQuery& query, const Graph& g) {
  return internal::RegexRelation(query, g, /*dual=*/false);
}

bool RegexSimulates(const RegexQuery& query, const Graph& g) {
  return ComputeRegexSimulation(query, g).IsTotal();
}

}  // namespace gpm
