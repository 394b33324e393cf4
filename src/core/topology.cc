#include "core/topology.hh"

#include <algorithm>

#include "common/logging.hh"
#include "hw/cost_cache.hh"
#include "ml/multiclass.hh"
#include "platform/aggregator.hh"

namespace xpro
{

namespace
{

/** Words in DWT level @p level's band consumed by feature cells. */
size_t
dwtFeatureWords(size_t level)
{
    const size_t detail = dwtFrameLength >> level;
    // Level 5 exposes both 4-sample segments (detail + approx).
    return level == dwtLevels ? 2 * detail : detail;
}

/** Samples a feature cell at @p domain processes. */
size_t
domainInputLength(FeatureDomain domain, size_t segment_length)
{
    if (domain == FeatureDomain::Time)
        return segment_length;
    return dwtFeatureWords(domainLevel(domain));
}

/**
 * The front end every engine topology shares. It prices each cell it
 * adds (mode policy, standby share, software costs) and builds the
 * DWT level chain and the feature cells; the back ends add their
 * classifier cells through addCell().
 */
class TopologyBuilder
{
  public:
    TopologyBuilder(size_t segment_length, const EngineConfig &config,
                    double events_per_second)
        : _config(config), _tech(Technology::get(config.process))
    {
        xproAssert(segment_length >= 2, "segment too short");
        xproAssert(events_per_second > 0.0,
                   "event rate must be positive");
        _standbyPerEvent = _tech.cellStandbyPower() *
                           Time::seconds(1.0 / events_per_second);
        _topo.segmentLength = segment_length;
        _topo.designEventsPerSecond = events_per_second;
        _topo.graph = DataflowGraph(segment_length * wordBits);
        _topo.cells.resize(1); // placeholder for the source node
    }

    EngineTopology &topology() { return _topo; }

    /** Add a cell priced for @p workload; returns its node id. */
    size_t
    addCell(const std::string &name, const CellWorkload &workload,
            size_t output_bits, CellInfo info)
    {
        DataflowNode node;
        node.name = name;
        node.outputBits = output_bits;
        const AluMode mode = chooseMode(workload);
        const ModeCosts hw = cachedCellMode(workload, mode, _tech);
        const SoftwareCosts sw = _cpu.run(workload);
        node.costs.sensorEnergy = hw.energy + _standbyPerEvent;
        node.costs.sensorStandby = _tech.cellStandbyPower();
        node.costs.sensorDelay = hw.delay;
        node.costs.aggregatorEnergy = sw.energy;
        node.costs.aggregatorDelay = sw.delay;
        const size_t id = _topo.graph.addCell(node);
        info.mode = mode;
        _topo.cells.push_back(info);
        xproAssert(_topo.cells.size() == _topo.graph.nodeCount(),
                   "cell metadata out of sync");
        return id;
    }

    /**
     * Add the DWT chain down to the deepest level @p used reads and
     * one feature cell per pool index in @p used (ascending).
     */
    void
    addFeatureCells(const std::vector<size_t> &used)
    {
        size_t max_level = 0;
        for (size_t idx : used) {
            max_level = std::max(
                max_level, domainLevel(featureFromIndex(idx).domain));
        }
        addDwtChain(max_level);
        for (size_t idx : used)
            _topo.featureNodes[idx] = addFeatureCell(idx, used);
    }

    /** Validate and hand over the finished topology. */
    EngineTopology
    finish()
    {
        const std::string error = _topo.graph.validate();
        xproAssert(error.empty(), "invalid topology: %s", error.c_str());
        return std::move(_topo);
    }

  private:
    AluMode
    chooseMode(const CellWorkload &workload) const
    {
        switch (_config.modePolicy) {
          case ModePolicy::Optimal:
            return cachedBestCellMode(workload, _tech);
          case ModePolicy::ForceSerial:
            return AluMode::Serial;
          case ModePolicy::ForceParallel:
            return AluMode::Parallel;
          case ModePolicy::ForcePipeline:
            return AluMode::Pipeline;
        }
        panic("unknown mode policy %d",
              static_cast<int>(_config.modePolicy));
    }

    /** Level k transforms the level k-1 approximation; level 1
     *  reads the framed raw segment. */
    void
    addDwtChain(size_t max_level)
    {
        const size_t taps = _config.wavelet == Wavelet::Haar ? 2 : 4;
        for (size_t level = 1; level <= max_level; ++level) {
            const size_t input_len = dwtFrameLength >> (level - 1);
            CellInfo info;
            info.kind = ComponentKind::Dwt;
            info.dwtLevel = level;
            const size_t id =
                addCell("DWT-L" + std::to_string(level),
                        dwtLevelWorkload(input_len, taps),
                        input_len * wordBits, info);
            if (level == 1) {
                // The DWT frame is derived from the same raw segment
                // the time-domain cells read (padding is not
                // transmitted), so this edge carries the raw segment
                // itself and joins the source's single broadcast
                // group.
                _topo.graph.addEdge(DataflowGraph::sourceId, id,
                                    _topo.segmentLength * wordBits);
            } else {
                // Approximation band of the previous level.
                _topo.graph.addEdge(_topo.dwtNodes.back(), id,
                                    input_len * wordBits);
            }
            _topo.dwtNodes.push_back(id);
        }
    }

    /** The cell of pool feature @p idx, with Var-cell reuse for Std
     *  (Fig. 5) when enabled and Var is in @p used. */
    size_t
    addFeatureCell(size_t idx, const std::vector<size_t> &used)
    {
        const FeatureId id = featureFromIndex(idx);
        CellInfo info;
        info.kind = componentForFeature(id.kind);
        info.feature = id;

        const size_t var_idx = featureIndex({id.domain, FeatureKind::Var});
        if (_config.enableCellReuse && id.kind == FeatureKind::Std &&
            std::find(used.begin(), used.end(), var_idx) != used.end()) {
            // Reuse: Std consumes the Var cell output, adds a sqrt.
            const size_t node = addCell(featureFullName(id),
                                        stdFromVarWorkload(),
                                        featureValueBits, info);
            // Var's pool index precedes Std's within a domain, so
            // its cell already exists.
            const size_t var_node = _topo.featureNodes[var_idx];
            xproAssert(var_node != 0, "Var cell missing for reuse");
            _topo.graph.addEdge(var_node, node, featureValueBits);
            return node;
        }

        const size_t node = addCell(
            featureFullName(id),
            featureCellWorkload(
                id.kind, domainInputLength(id.domain,
                                           _topo.segmentLength)),
            featureValueBits, info);
        if (id.domain == FeatureDomain::Time) {
            _topo.graph.addEdge(DataflowGraph::sourceId, node,
                                _topo.segmentLength * wordBits);
        } else {
            const size_t level = domainLevel(id.domain);
            _topo.graph.addEdge(_topo.dwtNodes[level - 1], node,
                                dwtFeatureWords(level) * wordBits);
        }
        return node;
    }

    const EngineConfig &_config;
    const Technology &_tech;
    const AggregatorCpu _cpu;
    Energy _standbyPerEvent;
    EngineTopology _topo;
};

/**
 * Add one ensemble's SVM cells, named @p svm_prefix plus the 1-based
 * base number, and its weighted-voting fusion cell @p fusion_name,
 * all tagged with @p class_index. Returns the fusion node.
 */
size_t
addEnsembleCells(TopologyBuilder &builder,
                 const RandomSubspace &ensemble,
                 const std::string &svm_prefix,
                 const std::string &fusion_name, size_t class_index)
{
    EngineTopology &topo = builder.topology();
    const size_t first_svm = topo.svmNodes.size();
    for (size_t b = 0; b < ensemble.bases().size(); ++b) {
        const BaseClassifier &base = ensemble.bases()[b];
        CellInfo info;
        info.kind = ComponentKind::Svm;
        info.svmIndex = b;
        info.classIndex = class_index;
        const size_t sv_count =
            std::max<size_t>(base.model.supportVectorCount(), 1);
        const size_t id = builder.addCell(
            svm_prefix + std::to_string(b + 1),
            svmCellWorkload(base.featureIndices.size(), sv_count),
            featureValueBits, info);
        for (size_t feat : base.featureIndices) {
            const size_t feat_node = topo.featureNodes[feat];
            xproAssert(feat_node != 0, "feature cell %zu missing",
                       feat);
            topo.graph.addEdge(feat_node, id, featureValueBits);
        }
        topo.svmNodes.push_back(id);
    }

    CellInfo info;
    info.kind = ComponentKind::Fusion;
    info.classIndex = class_index;
    const size_t fusion =
        builder.addCell(fusion_name,
                        fusionCellWorkload(ensemble.bases().size()),
                        featureValueBits, info);
    for (size_t k = first_svm; k < topo.svmNodes.size(); ++k)
        topo.graph.addEdge(topo.svmNodes[k], fusion, featureValueBits);
    return fusion;
}

} // namespace

EngineTopology
buildEngineTopology(const RandomSubspace &ensemble,
                    size_t segment_length, const EngineConfig &config,
                    double events_per_second)
{
    xproAssert(!ensemble.bases().empty(), "ensemble not trained");
    TopologyBuilder builder(segment_length, config, events_per_second);
    builder.addFeatureCells(ensemble.usedFeatureIndices());
    builder.topology().fusionNode =
        addEnsembleCells(builder, ensemble, "SVM-", "Fusion", 0);
    return builder.finish();
}

EngineTopology
buildMultiClassTopology(const MultiClassSubspace &ensemble,
                        size_t segment_length,
                        const EngineConfig &config,
                        double events_per_second)
{
    xproAssert(ensemble.classCount() >= 2, "not a multi-class model");
    TopologyBuilder builder(segment_length, config, events_per_second);
    builder.addFeatureCells(ensemble.usedFeatureIndices());
    std::vector<size_t> class_fusions;
    for (size_t cls = 0; cls < ensemble.classCount(); ++cls) {
        const std::string number = std::to_string(cls);
        class_fusions.push_back(addEnsembleCells(
            builder, ensemble.classEnsemble(cls), "SVM-c" + number + "-",
            "Fusion-c" + number, cls));
    }

    CellInfo info;
    info.kind = ComponentKind::Argmax;
    const size_t argmax =
        builder.addCell("Argmax",
                        argmaxCellWorkload(ensemble.classCount()),
                        EngineTopology::resultBits, info);
    for (size_t fusion : class_fusions)
        builder.topology().graph.addEdge(fusion, argmax,
                                         featureValueBits);
    builder.topology().fusionNode = argmax;
    return builder.finish();
}

std::string
describeCell(const EngineTopology &topology, size_t node)
{
    const DataflowNode &n = topology.graph.node(node);
    if (node == DataflowGraph::sourceId)
        return "source (" + std::to_string(n.outputBits) + " bits)";
    const CellInfo &info = topology.cells[node];
    return n.name + " [" + componentName(info.kind) + ", " +
           aluModeName(info.mode) + ", " +
           std::to_string(n.costs.sensorEnergy.nj()) + " nJ hw]";
}

} // namespace xpro
