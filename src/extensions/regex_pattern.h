// Regular-expression pattern edges, after Fan et al.'s graph pattern
// queries (ICDE 2011 — the paper's [18], and its §6 first future-work
// item): a pattern edge carries a bounded regular expression over *edge
// labels*, and matches any data path spelling a word of that language.
//
// The [18] fragment is concatenations of bounded repetitions
// l^{min..max}; that is exactly RegexPath below. Matching is evaluated
// set-at-a-time: the witness condition of a pattern edge is one set image
// (internal::RegexImage) of a whole candidate set along the constraint,
// so a fixpoint step costs a few passes over the data graph's edges
// however many candidates it checks.

#ifndef GPM_EXTENSIONS_REGEX_PATTERN_H_
#define GPM_EXTENSIONS_REGEX_PATTERN_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "graph/graph.h"
#include "matching/match_relation.h"

namespace gpm {

/// Wildcard edge label (matches any label) inside regex atoms.
inline constexpr EdgeLabel kAnyEdgeLabel = 0xFFFFFFFEu;

/// Unbounded repetition count (the Kleene-ish upper bound).
inline constexpr uint32_t kUnboundedReps = 0xFFFFFFFFu;

/// \brief One bounded repetition l^{min..max}.
struct RegexAtom {
  EdgeLabel label = kAnyEdgeLabel;
  uint32_t min_reps = 1;
  uint32_t max_reps = 1;
};

/// A concatenation of atoms — the [18] regex fragment.
using RegexPath = std::vector<RegexAtom>;

/// \brief A pattern whose edges carry RegexPath constraints.
///
/// Edges without an explicit constraint default to one wildcard hop
/// (ordinary edge semantics), so a RegexQuery over a plain pattern
/// behaves exactly like graph simulation.
class RegexQuery {
 public:
  /// The pattern must be finalized.
  explicit RegexQuery(Graph pattern);

  /// Attaches a constraint to pattern edge (u, v); the edge must exist
  /// and the path must be non-empty with min <= max per atom.
  Status SetConstraint(NodeId u, NodeId v, RegexPath path);

  const RegexPath& ConstraintFor(NodeId u, NodeId v) const;
  const Graph& pattern() const { return pattern_; }

  /// The explicitly attached constraints, keyed by pattern edge (edges
  /// absent here carry the one-wildcard-hop default). Deterministic
  /// (map) order — the serialization and hashing below rely on it.
  const std::map<std::pair<NodeId, NodeId>, RegexPath>& constraints() const {
    return constraints_;
  }

  /// Stable content hash over the pattern graph *and* the constraint
  /// set. Two RegexQueries over structurally equal patterns but different
  /// constraints hash differently, and a regex query never hashes equal
  /// to its plain pattern graph — the engine keys regex cache entries on
  /// this, so constraint changes can never serve a stale answer.
  uint64_t ContentHash() const;

 private:
  Graph pattern_;
  std::map<std::pair<NodeId, NodeId>, RegexPath> constraints_;
  RegexPath default_constraint_;
};

/// Wire round-trip for a RegexQuery (the §4.3 pattern broadcast of the
/// distributed regex executor): the binary pattern graph followed by the
/// explicit constraint list.
std::string SerializeRegexQuery(const RegexQuery& query);

/// Inverse of SerializeRegexQuery; Corruption on malformed input.
Result<RegexQuery> DeserializeRegexQuery(const std::string& bytes);

/// Maximum regex-simulation relation: (u, v) ∈ S iff labels agree and for
/// every pattern edge (u, u') with constraint R there is a data path from
/// v spelling a word of L(R) that ends at some v' ∈ S(u'). The child half
/// of internal::RegexFixpoint, started from the label classes.
MatchRelation ComputeRegexSimulation(const RegexQuery& query, const Graph& g);

/// True iff the regex pattern matches g (relation total).
bool RegexSimulates(const RegexQuery& query, const Graph& g);

namespace internal {

/// Which side of a regex path a RegexImage computes.
enum class RegexImageDir {
  /// Post_R(S): the nodes some walk spelling a word of L(R) reaches from S.
  kPost,
  /// Pre_R(S): the nodes some walk spelling a word of L(R) leads from
  /// into S.
  kPre,
};

/// Caller-owned buffers of RegexImage and RegexFixpoint. They grow to the
/// largest graph seen and are reused verbatim after that.
struct RegexImageScratch {
  DynamicBitset frontier;
  DynamicBitset next;
  DynamicBitset reached;
  /// The set a caller takes an image of: RegexFixpoint's per-edge image,
  /// ProcessRegexBall's witness targets.
  DynamicBitset image;
  /// RegexFixpoint: version[u] counts the shrinks of (*member)[u], and
  /// seen[e] is the version the e-th condition last read.
  std::vector<uint64_t> version;
  std::vector<uint64_t> seen;
};

/// Replaces *set (universe [0, g.num_nodes())) with its image along
/// `path`: Post_R(S) or Pre_R(S), intersected with *within when that is
/// non-null. Both directions read only the out-adjacency: kPost pushes a
/// frontier over out-edges, kPre pulls, scanning each node's out-edges for
/// one into the frontier (only the nodes of *within on the last step).
/// Per atom l^{min..max}, min one-hop steps are taken and the further
/// steps unioned; the union stops as soon as a step adds nothing, which is
/// exact (once L_{h+1} lies in the union of L_min..L_h, every later layer
/// does) and bounds the work of unbounded and large bounded atoms.
void RegexImage(const Graph& g, const RegexPath& path, RegexImageDir dir,
                DynamicBitset* set, RegexImageScratch* scratch,
                const DynamicBitset* within = nullptr);

/// The greatest-fixpoint core of the regex relations. Shrinks each
/// (*member)[u] (universe [0, g.num_nodes()), one per pattern node) until
/// stable: (*member)[u] &= Pre_R(member[u2]) for every pattern edge
/// (u, u2) with constraint R and, when `dual`, &= Post_R(member[u1]) for
/// every pattern edge (u1, u). A condition is re-read only after the set
/// it reads shrank. Any start set between the maximum relation and the
/// label classes lands on the maximum relation.
void RegexFixpoint(const RegexQuery& query, const Graph& g, bool dual,
                   std::vector<DynamicBitset>* member,
                   RegexImageScratch* scratch);

/// The maximum regex relation started from the label classes: the child
/// half of RegexFixpoint (ComputeRegexSimulation) or, when `dual`, both
/// halves (ComputeRegexDualSimulation).
MatchRelation RegexRelation(const RegexQuery& query, const Graph& g,
                            bool dual);

}  // namespace internal

}  // namespace gpm

#endif  // GPM_EXTENSIONS_REGEX_PATTERN_H_
