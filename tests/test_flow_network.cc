/**
 * @file
 * Unit and property tests for the Dinic max-flow / min-cut engine
 * the Automatic XPro Generator builds on.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "graph/flow_network.hh"

namespace
{

using xpro::FlowNetwork;
using xpro::MinCutResult;

TEST(FlowNetworkTest, SingleEdge)
{
    FlowNetwork net(2);
    net.addEdge(0, 1, 5.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 1), 5.0);
}

TEST(FlowNetworkTest, SeriesTakesMinimum)
{
    FlowNetwork net(3);
    net.addEdge(0, 1, 5.0);
    net.addEdge(1, 2, 3.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 2), 3.0);
}

TEST(FlowNetworkTest, ParallelPathsAdd)
{
    FlowNetwork net(4);
    net.addEdge(0, 1, 2.0);
    net.addEdge(1, 3, 2.0);
    net.addEdge(0, 2, 3.0);
    net.addEdge(2, 3, 3.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 3), 5.0);
}

TEST(FlowNetworkTest, ClassicCLRSExample)
{
    // CLRS figure 26.6 instance; known max flow 23.
    FlowNetwork net(6);
    net.addEdge(0, 1, 16);
    net.addEdge(0, 2, 13);
    net.addEdge(1, 2, 10);
    net.addEdge(2, 1, 4);
    net.addEdge(1, 3, 12);
    net.addEdge(3, 2, 9);
    net.addEdge(2, 4, 14);
    net.addEdge(4, 3, 7);
    net.addEdge(3, 5, 20);
    net.addEdge(4, 5, 4);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 5), 23.0);
}

TEST(FlowNetworkTest, DisconnectedIsZero)
{
    FlowNetwork net(4);
    net.addEdge(0, 1, 10.0);
    net.addEdge(2, 3, 10.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 3), 0.0);
}

TEST(FlowNetworkTest, BackwardEdgeHasNoForwardCapacity)
{
    FlowNetwork net(2);
    net.addEdge(0, 1, 4.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(1, 0), 0.0);
}

TEST(FlowNetworkTest, MinCutSidesPartitionNodes)
{
    FlowNetwork net(4);
    net.addEdge(0, 1, 1.0);
    net.addEdge(1, 2, 5.0);
    net.addEdge(2, 3, 1.0);
    const MinCutResult cut = net.minCut(0, 3);
    EXPECT_DOUBLE_EQ(cut.value, 1.0);
    EXPECT_TRUE(cut.sourceSide[0]);
    EXPECT_FALSE(cut.sourceSide[3]);
}

TEST(FlowNetworkTest, CutEdgesSumToCutValue)
{
    FlowNetwork net(5);
    net.addEdge(0, 1, 3.0);
    net.addEdge(0, 2, 2.0);
    net.addEdge(1, 3, 1.5);
    net.addEdge(2, 3, 4.0);
    net.addEdge(1, 2, 1.0);
    net.addEdge(3, 4, 10.0);
    const MinCutResult cut = net.minCut(0, 4);
    double sum = 0.0;
    for (size_t edge_id : cut.cutEdges)
        sum += net.edgeCapacity(edge_id);
    EXPECT_NEAR(sum, cut.value, 1e-9);
}

TEST(FlowNetworkTest, InfiniteEdgeNeverCut)
{
    FlowNetwork net(4);
    net.addEdge(0, 1, FlowNetwork::infiniteCapacity());
    net.addEdge(1, 2, 2.0);
    net.addEdge(2, 3, 5.0);
    const MinCutResult cut = net.minCut(0, 3);
    EXPECT_DOUBLE_EQ(cut.value, 2.0);
    // Node 1 must stay on the source side with its infinite feeder.
    EXPECT_TRUE(cut.sourceSide[1]);
    for (size_t edge_id : cut.cutEdges)
        EXPECT_FALSE(std::isinf(net.edgeCapacity(edge_id)));
}

TEST(FlowNetworkTest, InfiniteMaxFlowDetected)
{
    FlowNetwork net(2);
    net.addEdge(0, 1, FlowNetwork::infiniteCapacity());
    EXPECT_TRUE(std::isinf(net.maxFlow(0, 1)));
}

TEST(FlowNetworkTest, EdgeAccessors)
{
    FlowNetwork net(3);
    const size_t e = net.addEdge(1, 2, 7.5);
    EXPECT_EQ(net.edgeFrom(e), 1u);
    EXPECT_EQ(net.edgeTo(e), 2u);
    EXPECT_DOUBLE_EQ(net.edgeCapacity(e), 7.5);
}

TEST(FlowNetworkTest, FlowConservationAfterMaxFlow)
{
    FlowNetwork net(5);
    std::vector<size_t> edges;
    edges.push_back(net.addEdge(0, 1, 4));
    edges.push_back(net.addEdge(0, 2, 3));
    edges.push_back(net.addEdge(1, 3, 2));
    edges.push_back(net.addEdge(2, 3, 5));
    edges.push_back(net.addEdge(1, 2, 2));
    edges.push_back(net.addEdge(3, 4, 6));
    net.maxFlow(0, 4);
    // Net flow into every interior node equals net flow out.
    std::vector<double> balance(5, 0.0);
    for (size_t e : edges) {
        balance[net.edgeFrom(e)] -= net.edgeFlow(e);
        balance[net.edgeTo(e)] += net.edgeFlow(e);
    }
    EXPECT_NEAR(balance[1], 0.0, 1e-9);
    EXPECT_NEAR(balance[2], 0.0, 1e-9);
    EXPECT_NEAR(balance[3], 0.0, 1e-9);
    EXPECT_NEAR(balance[0] + balance[4], 0.0, 1e-9);
}

TEST(FlowNetworkTest, AddNodeGrowsGraph)
{
    FlowNetwork net(1);
    const size_t n = net.addNode();
    EXPECT_EQ(n, 1u);
    net.addEdge(0, n, 2.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, n), 2.0);
}

TEST(FlowNetworkTest, RepeatedMaxFlowIsIdempotent)
{
    FlowNetwork net(3);
    net.addEdge(0, 1, 2.0);
    net.addEdge(1, 2, 2.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 2), 2.0);
    EXPECT_DOUBLE_EQ(net.maxFlow(0, 2), 2.0);
}

/**
 * Property: on random graphs the Dinic cut value equals the best cut
 * found by exhaustive enumeration of node bipartitions.
 */
class FlowNetworkPropertyTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FlowNetworkPropertyTest, MatchesExhaustiveMinCut)
{
    xpro::Rng rng(GetParam());
    const size_t n = 2 + rng.below(7); // up to 8 nodes
    struct EdgeSpec { size_t u, v; double cap; };
    std::vector<EdgeSpec> specs;
    FlowNetwork net(n);
    for (size_t u = 0; u < n; ++u) {
        for (size_t v = 0; v < n; ++v) {
            if (u == v || !rng.chance(0.45))
                continue;
            const double cap = rng.uniform(0.1, 10.0);
            specs.push_back({u, v, cap});
            net.addEdge(u, v, cap);
        }
    }
    const size_t s = 0;
    const size_t t = n - 1;
    const double flow = net.maxFlow(s, t);

    double best = std::numeric_limits<double>::infinity();
    const size_t interior = n - 2;
    for (size_t mask = 0; mask < (size_t{1} << interior); ++mask) {
        // side[v] true => source side. s fixed to source, t to sink.
        std::vector<bool> side(n, false);
        side[s] = true;
        for (size_t b = 0; b < interior; ++b)
            side[1 + b] = (mask >> b) & 1;
        side[t] = false;
        double cost = 0.0;
        for (const auto &e : specs) {
            if (side[e.u] && !side[e.v])
                cost += e.cap;
        }
        best = std::min(best, cost);
    }
    EXPECT_NEAR(flow, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowNetworkPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{130}));

/**
 * Property: after arbitrary capacity perturbations — raises and
 * drops, including drops below the previous solve's flow — a
 * minCut() on the reused, re-priced network matches a fresh network
 * with the same capacities: same value, same (canonical) source
 * side, same cut edges. Guards against stale flow or levels leaking
 * from one solve into the next.
 */
TEST_P(FlowNetworkPropertyTest, WarmResolveMatchesColdAfterPerturbation)
{
    xpro::Rng rng(GetParam() + 5000);
    const size_t n = 2 + rng.below(7);
    struct EdgeSpec { size_t u, v; double cap; size_t id; };
    std::vector<EdgeSpec> specs;
    FlowNetwork net(n);
    for (size_t u = 0; u < n; ++u) {
        for (size_t v = 0; v < n; ++v) {
            if (u == v || !rng.chance(0.45))
                continue;
            EdgeSpec spec{u, v, rng.uniform(0.1, 10.0), 0};
            spec.id = net.addEdge(u, v, spec.cap);
            specs.push_back(spec);
        }
    }
    const size_t s = 0;
    const size_t t = n - 1;
    net.minCut(s, t);

    for (int round = 0; round < 6; ++round) {
        for (EdgeSpec &spec : specs) {
            if (!rng.chance(0.5))
                continue;
            // Half the perturbations scale down hard, so drops
            // below the previous solve's flow happen regularly.
            spec.cap = rng.chance(0.5) ? spec.cap * rng.uniform(0.0, 0.6)
                                       : rng.uniform(0.1, 10.0);
            net.setCapacity(spec.id, spec.cap);
        }
        const MinCutResult reused = net.minCut(s, t);

        FlowNetwork fresh_net(n);
        for (const EdgeSpec &spec : specs)
            fresh_net.addEdge(spec.u, spec.v, spec.cap);
        const MinCutResult fresh = fresh_net.minCut(s, t);

        EXPECT_NEAR(reused.value, fresh.value, 1e-9)
            << "round " << round;
        EXPECT_EQ(reused.sourceSide, fresh.sourceSide)
            << "round " << round;
        EXPECT_EQ(reused.cutEdges, fresh.cutEdges)
            << "round " << round;
    }
}

} // namespace
