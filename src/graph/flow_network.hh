/**
 * @file
 * Directed flow network with Dinic max-flow and min s-t cut
 * extraction.
 *
 * This is the graph-theory engine behind the Automatic XPro Generator
 * (paper Section 3.2): the generator reduces functional-cell
 * partitioning to a min-cut on an s-t graph, which by max-flow/min-cut
 * duality is solved here in polynomial time.
 *
 * The generator's Lagrangian delay sweep and the fleet admission
 * loop re-enter one persistent graph with re-priced capacities:
 * setCapacity() only rewrites a capacity, and every solve starts
 * from zero flow. The set of nodes reachable from s in the residual
 * graph of *any* maximum flow is the same (the canonical minimum
 * cut), so a re-priced network classifies nodes exactly like a
 * freshly built one — the property-test suite pins this down.
 */

#ifndef XPRO_GRAPH_FLOW_NETWORK_HH
#define XPRO_GRAPH_FLOW_NETWORK_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace xpro
{

/** Result of a min s-t cut computation. */
struct MinCutResult
{
    /** Total capacity of the cut == max-flow value. */
    double value = 0.0;
    /**
     * For each node, true if the node is on the source side of the
     * cut (reachable from s in the residual graph).
     */
    std::vector<bool> sourceSide;
    /** Indices (into the network's edge list) of the cut edges. */
    std::vector<size_t> cutEdges;
};

/**
 * A capacitated directed graph supporting max-flow queries.
 *
 * Nodes are dense indices [0, nodeCount). Capacities are doubles;
 * use infiniteCapacity() for edges that must never be cut.
 */
class FlowNetwork
{
  public:
    /** Capacity treated as uncuttable. */
    static constexpr double
    infiniteCapacity()
    {
        return std::numeric_limits<double>::infinity();
    }

    /** Create a network with @p node_count nodes and no edges. */
    explicit FlowNetwork(size_t node_count);

    /** Add a node; returns its index. */
    size_t addNode();

    /**
     * Add a directed edge u -> v with the given capacity.
     * @return An edge id usable with edgeCapacity()/edgeFlow().
     */
    size_t addEdge(size_t u, size_t v, double capacity);

    size_t nodeCount() const { return _adjacency.size(); }
    size_t edgeCount() const { return _edges.size() / 2; }

    /** Endpoints and capacity of a previously added edge. */
    size_t edgeFrom(size_t edge_id) const;
    size_t edgeTo(size_t edge_id) const;
    double edgeCapacity(size_t edge_id) const;

    /** Flow over an edge after the last maxFlow() call. */
    double edgeFlow(size_t edge_id) const;

    /**
     * Compute the maximum s-t flow with Dinic's algorithm.
     * Residual state is reset on every call.
     */
    double maxFlow(size_t s, size_t t);

    /**
     * Compute a minimum s-t cut. Runs maxFlow() and then classifies
     * nodes by residual reachability from s.
     */
    MinCutResult minCut(size_t s, size_t t);

    /**
     * Change the capacity of a previously added edge. The next
     * maxFlow()/minCut() solves the re-priced network from zero.
     */
    void setCapacity(size_t edge_id, double capacity);

  private:
    struct Edge
    {
        size_t to;
        double capacity;
        double flow;
    };

    bool buildLevels(size_t s, size_t t);
    double sendBlocking(size_t u, size_t t, double pushed);

    /** Forward/backward edge pairs at indices 2k / 2k+1. */
    std::vector<Edge> _edges;
    std::vector<std::vector<size_t>> _adjacency;
    std::vector<int> _level;
    std::vector<size_t> _iter;
    /** Reusable BFS frontier (head-indexed vector, no deque). */
    std::vector<size_t> _frontier;
};

} // namespace xpro

#endif // XPRO_GRAPH_FLOW_NETWORK_HH
