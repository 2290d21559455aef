#ifndef CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLES_H_
#define CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLES_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "graph/flat_map.h"
#include "hash/kwise.h"
#include "stream/driver.h"
#include "stream/space.h"

namespace cyclestream {

/// The §2.1 algorithm (Theorem 2.1): one pass over a *randomly ordered* edge
/// stream, Õ(ε⁻²·m/√T) space, (1+ε)-approximation of the triangle count.
///
/// Components (names follow the paper):
///  - Level structures (i = 0..log√T): vertex samples V_i at rate
///    p_i = min(1, cv/2^i), and E_i = edges incident to V_i among the first
///    q_i·m stream positions, q_i = 2^i/√T. An edge arriving after position
///    q_i·m that closes a triangle with two E_i edges enters the candidate
///    set P — the paper's novel mechanism for spotting heavy edges online in
///    a random-order stream.
///  - Rough estimator: S = the first r·m stream edges (r = c·ε⁻¹/√T); C =
///    edges closing a triangle with two S edges. Estimates the count of
///    triangles whose edges are all light.
///  - Oracle: O = E_{log√T} (the top level, built over the whole stream);
///    e is heavy iff t_e^O ≥ p·√T where p = p_{log√T}. The oracle is a
///    function of the sampled set, not the stream order.
///
/// Final estimate:
///   (1/3r²)·Σ_{e∈C_L} t_e^{S_L}
///     + (1/p)·Σ_{e∈P_H} ( t_{e,0}^O + t_{e,1}^O/2 + t_{e,2}^O/3 )
/// where the coefficients undo the multiple counting of triangles with
/// several heavy edges.
///
/// Practical notes:
///  - `t_guess` stands in for T (paper convention).
///  - The theoretical vertex-sampling constant is 10·c·ε⁻²·log n, which
///    saturates p_i = 1 on laptop-scale graphs; `level_rate` exposes the
///    cv constant directly (default: c·ε⁻²·log₂n) so space/accuracy
///    trade-offs are measurable. All clamping behavior matches the paper
///    (probabilities and prefix fractions cap at 1).
class RandomOrderTriangleCounter : public EdgeStreamAlgorithm {
 public:
  struct Params {
    ApproxConfig base;
    VertexId num_vertices = 0;
    /// Override for cv in p_i = min(1, cv/2^i); <= 0 means use the default
    /// c·ε⁻²·log₂(n).
    double level_rate = -1.0;
    /// Override for r in S = first r·m edges; <= 0 means c·ε⁻¹/√T.
    double prefix_rate = -1.0;
  };

  explicit RandomOrderTriangleCounter(const Params& params);

  // EdgeStreamAlgorithm:
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessEdge(int pass, const Edge& e, std::size_t position) override;
  void EndPass(int pass) override;
  std::size_t AuditSpace() const override;
  const SpaceTracker* space_tracker() const override { return &space_; }
  std::string_view CheckpointId() const override { return "randtri/2"; }
  bool SaveState(StateWriter& w) const override;
  bool RestoreState(StateReader& r) override;

  /// Final estimate; valid after the pass completes.
  Estimate Result() const { return result_; }

  /// Oracle heaviness of an edge (exposed for the oracle-quality tests).
  /// Valid after the pass.
  bool IsHeavy(const Edge& e) const;

  /// Diagnostics for the ablation experiment.
  struct Diagnostics {
    double light_term = 0.0;
    double heavy_term = 0.0;
    std::size_t candidate_heavy_edges = 0;  // |P|
    std::size_t oracle_heavy_in_p = 0;      // |P_H|
    std::size_t rough_set_size = 0;         // |C|
  };
  const Diagnostics& diagnostics() const { return diagnostics_; }

 private:
  /// One sampled edge set (a level's E_i, or S) with its adjacency: the
  /// edge keys for membership, and one neighbour row per touched vertex.
  /// Rows are kept in creation order and each row in insertion order; that
  /// order fixes every common-neighbour walk, and with it the summation
  /// order of the heavy term. Space is proportional to the stored edges —
  /// never an n-sized array, which would break Thm 2.1's Õ(ε⁻²m/√T).
  class SampledGraph {
   public:
    /// Adds e's key to the edge set; true if it was absent.
    bool Insert(const Edge& e) { return edges_.insert(e.Key()); }
    /// Appends e to both endpoints' rows.
    void Link(const Edge& e);
    /// Edges appended to the rows (a repeated Link counts again), by a
    /// walk of the rows.
    std::size_t links() const;

    /// Calls visit(w) for each w ≠ e.u, e.v in the smaller endpoint row
    /// whose closing edge is stored, in row order, until visit returns
    /// false.
    template <typename Visit>
    void ForEachCommonNeighbor(const Edge& e, Visit visit) const;
    bool ClosesTriangle(const Edge& e) const;
    /// Calls visit(e) once per row entry (v, w) with v < w: every linked
    /// edge, a repeatedly linked one repeatedly.
    template <typename Visit>
    void ForEachEdge(Visit visit) const;

    /// Rows in creation order; Restore rebuilds the edge set from them and
    /// returns false on a vertex ≥ `num_vertices`, a repeated or empty row,
    /// a self-loop, rows that do not list every edge from both ends, or
    /// (with `unique_links`) an edge linked twice.
    void Save(StateWriter& w) const;
    bool Restore(StateReader& r, VertexId num_vertices, bool unique_links);

   private:
    struct Row {
      VertexId vertex = 0;
      std::vector<VertexId> neighbors;
    };
    const std::vector<VertexId>* Neighbors(VertexId v) const;

    FlatSet64 edges_;
    FlatMap64<std::uint32_t> row_of_;  // Vertex → index into rows_.
    std::vector<Row> rows_;
  };

  struct Level {
    double p = 1.0;                 // Vertex sampling probability.
    double q = 1.0;                 // Prefix fraction.
    std::size_t prefix_edges = 0;   // q·m, fixed at StartPass.
    KWiseHash vertex_hash;          // Defines V_i = {v : h(v) < p}.
    SampledGraph graph;             // E_i.

    Level(double p_in, double q_in, KWiseHash hash)
        : p(p_in), q(q_in), vertex_hash(std::move(hash)) {}

    // ToUnit < 1, so a saturated level skips the hash.
    bool InVi(VertexId v) const {
      return p >= 1.0 || vertex_hash.ToUnit(v) < p;
    }
  };

  // Oracle helpers (level L is the oracle set O).
  std::uint64_t OracleTriangleCount(const Edge& e) const;  // t_e^O, memoized.

  void SetPrefixes(std::size_t stream_length);
  double TermLight() const;
  double TermHeavy();
  /// Sets every space component from the containers (construction and
  /// restore); the stream path charges growth incrementally.
  void SetSpace();

  Params params_;
  int num_levels_ = 1;       // L+1 level structures.
  double p_oracle_ = 1.0;    // p_{log√T} after clamping.
  double heavy_cut_ = 0.0;   // p·√T oracle threshold.
  double r_ = 1.0;           // Prefix rate for S.
  std::size_t stream_length_ = 0;
  std::size_t s_prefix_edges_ = 0;

  std::vector<Level> levels_;
  SampledGraph s_graph_;  // S, every arrival linked (repeats included).
  FlatSet64 c_set_;       // C keys.
  std::vector<Edge> c_edges_;
  FlatSet64 p_set_;       // P keys.
  std::vector<Edge> p_edges_;

  mutable FlatMap64<std::uint64_t> oracle_cache_;

  SpaceTracker space_;
  Estimate result_;
  Diagnostics diagnostics_;
};

/// Convenience wrapper: runs the counter over `stream` and returns the
/// estimate.
Estimate CountTrianglesRandomOrder(const EdgeStream& stream,
                                   const RandomOrderTriangleCounter::Params& params);

}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLES_H_
