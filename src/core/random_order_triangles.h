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

  /// Level masks hold one bit per level, so at most 64 levels: √t_guess
  /// ≤ 2^63. Query front ends check NumLevels against this before they
  /// construct a counter; the constructor CHECKs it.
  static constexpr int kMaxLevels = 64;
  /// L+1 = 1 + ⌈log₂ √t_guess⌉; any count past kMaxLevels (an infinite
  /// guess included) only says "too many".
  static int NumLevels(double t_guess);

  // EdgeStreamAlgorithm:
  int NumPasses() const override { return 1; }
  void StartPass(int pass, std::size_t stream_length) override;
  void ProcessEdge(int pass, const Edge& e, std::size_t position) override;
  void EndPass(int pass) override;
  std::size_t AuditSpace() const override;
  const SpaceTracker* space_tracker() const override { return &space_; }
  std::string_view CheckpointId() const override { return "randtri/3"; }
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
  /// The rough prefix S with its adjacency: the edge keys for membership,
  /// and one neighbour row per touched vertex. Every arrival is linked, a
  /// repeated one again. Rows are kept in creation order and each row in
  /// insertion order. Space is proportional to the stored edges — never an
  /// n-sized array, which would break Thm 2.1's Õ(ε⁻²m/√T).
  class SampledGraph {
   public:
    /// Adds e's key to the edge set and appends e to both endpoints' rows.
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
    /// a self-loop, or rows that do not list every edge from both ends.
    void Save(StateWriter& w) const;
    bool Restore(StateReader& r, VertexId num_vertices);

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

  /// All level samples E_0..E_L in one store. Each stored edge appears once,
  /// in arrival order, with a mask of the levels whose E_i hold it: bit i
  /// is set iff the edge's first arrival is inside level i's prefix and an
  /// endpoint is in V_i. A repeat never gains bits (prefixes only close).
  /// Each touched vertex has one row: its V_i membership mask, its entries
  /// (neighbour, edge index) in insertion order, and how many of those the
  /// oracle O = E_L holds. Filtering a row by bit i gives E_i's row in the
  /// order a per-level graph would have built it.
  class LevelStore {
   public:
    struct Entry {
      VertexId neighbor;
      std::uint32_t edge;  // Index into the stored edges.
    };
    struct Row {
      std::uint64_t in_v = 0;            // Bit i: the vertex is in V_i.
      std::uint32_t oracle_degree = 0;   // Entries whose edge has the top bit.
      std::vector<Entry> entries;
    };
    struct Stored {
      Edge edge;
      std::uint64_t position = 0;  // Stream position of its arrival.
    };

    LevelStore() = default;
    explicit LevelStore(std::uint64_t top_bit) : top_bit_(top_bit) {}

    const Row* FindRow(VertexId v) const {
      const std::uint32_t* index = row_of_.find(v);
      return index == nullptr ? nullptr : &rows_[*index - 1];
    }
    /// Stores e, arrived at `position`, with `mask` (≠ 0); false if e is
    /// already stored. A new endpoint row takes in_v(vertex) as its mask.
    template <typename MaskFn>
    bool Insert(const Edge& e, std::uint64_t position, std::uint64_t mask,
                MaskFn in_v);

    /// True if some w closes e with two edges that share a level of
    /// `levels`. Only existence matters, so it walks the shorter row.
    bool ClosesTriangle(const Edge& e, std::uint64_t levels) const;
    /// Calls visit(w) for each oracle triangle (e.u, e.v, w), walking the
    /// endpoint row with fewer oracle entries (u on a tie) in row order —
    /// the order a separate E_L graph walked, which fixes the heavy term's
    /// summation order.
    template <typename Visit>
    void ForEachOracleNeighbor(const Edge& e, Visit visit) const;

    /// Σ popcount(mask): the (edge, level) pairs a per-level layout holds.
    std::size_t level_links() const;
    const std::vector<Stored>& stored() const { return stored_; }
    const std::vector<std::uint64_t>& masks() const { return masks_; }

   private:
    /// The mask of the stored edge (a, b), or 0 if it is not stored.
    std::uint64_t MaskOf(VertexId a, VertexId b) const {
      const std::uint32_t* index = index_of_.find(Edge(a, b).Key());
      return index == nullptr ? 0 : masks_[*index - 1];
    }
    template <typename MaskFn>
    Row& RowFor(VertexId v, MaskFn in_v);

    std::uint64_t top_bit_ = 0;
    std::vector<Stored> stored_;         // Arrival order.
    std::vector<std::uint64_t> masks_;   // Parallel to stored_.
    FlatMap64<std::uint32_t> index_of_;  // Edge key → index + 1.
    FlatMap64<std::uint32_t> row_of_;    // Vertex → index + 1 into rows_.
    std::vector<Row> rows_;
  };

  struct Level {
    double p = 1.0;                 // Vertex sampling probability.
    double q = 1.0;                 // Prefix fraction.
    std::size_t prefix_edges = 0;   // q·m, fixed at StartPass.
    KWiseHash vertex_hash;          // Defines V_i = {v : h(v) < p}.

    Level(double p_in, double q_in, KWiseHash hash)
        : p(p_in), q(q_in), vertex_hash(std::move(hash)) {}
  };

  // Oracle helpers (level L is the oracle set O).
  std::uint64_t OracleTriangleCount(const Edge& e) const;  // t_e^O, memoized.

  void SetPrefixes(std::size_t stream_length);
  /// Levels whose prefix holds `position`.
  std::uint64_t OpenLevels(std::size_t position) const;
  /// The levels of `levels` whose V_i holds v; the 8-wise hash runs only
  /// for the unsaturated ones.
  std::uint64_t VMask(VertexId v, std::uint64_t levels) const;
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
  std::uint64_t all_levels_ = 0;
  std::uint64_t saturated_ = 0;  // Levels with p_i ≥ 1 (V_i = V).
  LevelStore store_;
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
