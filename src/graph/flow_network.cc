#include "graph/flow_network.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace xpro
{

namespace
{

/** Tolerance below which residual capacity counts as exhausted. */
constexpr double residualEpsilon = 1e-12;

} // namespace

FlowNetwork::FlowNetwork(size_t node_count)
    : _adjacency(node_count)
{
}

size_t
FlowNetwork::addNode()
{
    _adjacency.emplace_back();
    return _adjacency.size() - 1;
}

size_t
FlowNetwork::addEdge(size_t u, size_t v, double capacity)
{
    xproAssert(u < _adjacency.size() && v < _adjacency.size(),
               "edge endpoint out of range");
    xproAssert(capacity >= 0.0, "negative capacity %f", capacity);
    const size_t id = _edges.size();
    _edges.push_back({v, capacity, 0.0});
    _edges.push_back({u, 0.0, 0.0});
    _adjacency[u].push_back(id);
    _adjacency[v].push_back(id + 1);
    return id / 2;
}

size_t
FlowNetwork::edgeFrom(size_t edge_id) const
{
    return _edges[2 * edge_id + 1].to;
}

size_t
FlowNetwork::edgeTo(size_t edge_id) const
{
    return _edges[2 * edge_id].to;
}

double
FlowNetwork::edgeCapacity(size_t edge_id) const
{
    return _edges[2 * edge_id].capacity;
}

double
FlowNetwork::edgeFlow(size_t edge_id) const
{
    return _edges[2 * edge_id].flow;
}

bool
FlowNetwork::buildLevels(size_t s, size_t t)
{
    _level.assign(_adjacency.size(), -1);
    _frontier.clear();
    _level[s] = 0;
    _frontier.push_back(s);
    for (size_t head = 0; head < _frontier.size(); ++head) {
        const size_t u = _frontier[head];
        // Once t is leveled, nodes at t's level or deeper cannot lie
        // on a shortest augmenting path, so stop expanding.
        if (_level[t] >= 0 && _level[u] >= _level[t])
            break;
        for (size_t edge_id : _adjacency[u]) {
            const Edge &e = _edges[edge_id];
            if (_level[e.to] < 0 &&
                e.capacity - e.flow > residualEpsilon) {
                _level[e.to] = _level[u] + 1;
                _frontier.push_back(e.to);
            }
        }
    }
    return _level[t] >= 0;
}

double
FlowNetwork::sendBlocking(size_t u, size_t t, double pushed)
{
    if (u == t)
        return pushed;
    for (size_t &i = _iter[u]; i < _adjacency[u].size(); ++i) {
        const size_t edge_id = _adjacency[u][i];
        Edge &e = _edges[edge_id];
        const double residual = e.capacity - e.flow;
        if (residual <= residualEpsilon || _level[e.to] != _level[u] + 1)
            continue;
        const double sent =
            sendBlocking(e.to, t, std::min(pushed, residual));
        if (sent > 0.0) {
            e.flow += sent;
            _edges[edge_id ^ 1].flow -= sent;
            return sent;
        }
    }
    return 0.0;
}

double
FlowNetwork::maxFlow(size_t s, size_t t)
{
    xproAssert(s < _adjacency.size() && t < _adjacency.size(),
               "terminal out of range");
    xproAssert(s != t, "source and sink must differ");
    for (Edge &e : _edges)
        e.flow = 0.0;

    double total = 0.0;
    while (buildLevels(s, t)) {
        _iter.assign(_adjacency.size(), 0);
        while (true) {
            const double sent =
                sendBlocking(s, t, infiniteCapacity());
            if (sent <= 0.0)
                break;
            total += sent;
            if (std::isinf(total)) {
                // An infinite-capacity augmenting path exists; the
                // cut value is unbounded and node classification is
                // still well defined, so stop augmenting here.
                return total;
            }
        }
    }
    return total;
}

void
FlowNetwork::setCapacity(size_t edge_id, double capacity)
{
    xproAssert(2 * edge_id < _edges.size(), "edge id out of range");
    xproAssert(capacity >= 0.0, "negative capacity %f", capacity);
    _edges[2 * edge_id].capacity = capacity;
}

MinCutResult
FlowNetwork::minCut(size_t s, size_t t)
{
    MinCutResult result;
    result.value = maxFlow(s, t);

    // Source side = nodes reachable from s through residual capacity.
    result.sourceSide.assign(_adjacency.size(), false);
    _frontier.clear();
    result.sourceSide[s] = true;
    _frontier.push_back(s);
    for (size_t head = 0; head < _frontier.size(); ++head) {
        const size_t u = _frontier[head];
        for (size_t edge_id : _adjacency[u]) {
            const Edge &e = _edges[edge_id];
            if (!result.sourceSide[e.to] &&
                e.capacity - e.flow > residualEpsilon) {
                result.sourceSide[e.to] = true;
                _frontier.push_back(e.to);
            }
        }
    }

    for (size_t id = 0; id < _edges.size(); id += 2) {
        const size_t u = _edges[id + 1].to;
        const size_t v = _edges[id].to;
        if (result.sourceSide[u] && !result.sourceSide[v] &&
            _edges[id].capacity > 0.0) {
            result.cutEdges.push_back(id / 2);
        }
    }
    return result;
}

} // namespace xpro
