/**
 * @file
 * Builds the functional-cell topology graph of a classification
 * engine from a trained random-subspace ensemble (paper Section 2.2,
 * Fig. 2), binary or one-vs-rest multi-class (Section 5.7).
 *
 * One builder serves both: a shared front end prices every cell
 * (mode policy, standby share) and adds the DWT chain and the
 * feature cells; two back ends add the classifier cells on top, one
 * ensemble for a binary engine, one per class plus an argmax cell
 * for a multi-class engine.
 *
 * The topology contains exactly the cells the trained classifier
 * needs: the DWT level chain up to the deepest level any selected
 * feature uses, one feature cell per (domain, statistic) the
 * surviving base classifiers consume, one SVM cell per base
 * classifier and a single score-fusion cell ("not all the
 * statistical features are necessarily used ... the number of
 * functional cells is decided by the feature set and random
 * subspace training").
 *
 * Cell-level reuse (Fig. 5) is applied: when both Var and Std exist
 * on a domain, the Std cell consumes the Var cell's output and only
 * contains the square root.
 */

#ifndef XPRO_CORE_TOPOLOGY_HH
#define XPRO_CORE_TOPOLOGY_HH

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine_config.hh"
#include "dsp/feature_pool.hh"
#include "graph/dataflow_graph.hh"
#include "hw/cell_library.hh"

namespace xpro
{

class MultiClassSubspace;

/** Role metadata of one topology node. */
struct CellInfo
{
    ComponentKind kind = ComponentKind::Fusion;
    /** Feature identity for feature cells. */
    std::optional<FeatureId> feature;
    /** DWT level (1-based) for DWT cells. */
    size_t dwtLevel = 0;
    /** Base-classifier index for SVM cells. */
    size_t svmIndex = 0;
    /** One-vs-rest class index (multi-class topologies). */
    size_t classIndex = 0;
    /** Chosen (energy-optimal) S-ALU mode of the hardware variant. */
    AluMode mode = AluMode::Serial;
};

/** The complete functional-cell topology of one engine. */
struct EngineTopology
{
    DataflowGraph graph{0};
    /** Metadata per node id (index 0 = source, unused entry). */
    std::vector<CellInfo> cells;
    /** Node id of the fusion (result) cell. */
    size_t fusionNode = 0;
    /** Node ids of the SVM cells, by base index. */
    std::vector<size_t> svmNodes;
    /** Node ids of feature cells by pool index (0 = absent). */
    std::array<size_t, featurePoolSize> featureNodes{};
    /** Node ids of the DWT level cells (level 1 first). */
    std::vector<size_t> dwtNodes;
    /** Samples in the raw segment. */
    size_t segmentLength = 0;
    /**
     * Event rate the per-cell standby shares were amortized at when
     * the topology was built. Runtime adaptation (control/) uses it
     * to re-amortize CellCosts::sensorStandby at an observed rate
     * without rebuilding the topology.
     */
    double designEventsPerSecond = 4.0;

    /** Bits of the final classification result. */
    static constexpr size_t resultBits = featureValueBits;
};

/**
 * Build the engine topology for a trained ensemble.
 *
 * Each cell's in-sensor energy includes its standby share: the
 * input-channel logic of an idle cell keeps listening for the whole
 * event period (Fig. 3), so sensorEnergy = execution energy +
 * standby power / event rate. This makes the cost of parking a cell
 * in the sensor depend on how often events arrive, exactly the
 * trade-off the Automatic XPro Generator explores.
 *
 * @param ensemble Trained random-subspace classifier.
 * @param segment_length Samples per raw segment.
 * @param config Process/wireless/word configuration.
 * @param events_per_second Segment analysis rate of the workload.
 */
EngineTopology buildEngineTopology(const RandomSubspace &ensemble,
                                   size_t segment_length,
                                   const EngineConfig &config,
                                   double events_per_second);

/**
 * Build the engine topology of a one-vs-rest multi-class ensemble
 * (paper Section 5.7): "simply add more base classifiers that extend
 * only the topology of generic classification. The rest of the
 * proposed methodology can be applied directly."
 *
 * Feature cells are the union over every class ensemble (shared, so
 * a feature computed once serves all classes). Each class adds its
 * SVM cells (SVM-c<k>-<b>) and a fusion cell (Fusion-c<k>), and a
 * final Argmax cell selects the winning class. The result runs
 * through the unchanged Automatic XPro Generator, energy/delay
 * models, evaluator and simulator.
 *
 * @param ensemble Trained one-vs-rest classifier.
 * @param segment_length Samples per raw segment.
 * @param config Process/wireless/word configuration.
 * @param events_per_second Segment analysis rate of the workload.
 */
EngineTopology buildMultiClassTopology(const MultiClassSubspace &ensemble,
                                       size_t segment_length,
                                       const EngineConfig &config,
                                       double events_per_second);

/** Human-readable one-line description of a node. */
std::string describeCell(const EngineTopology &topology, size_t node);

} // namespace xpro

#endif // XPRO_CORE_TOPOLOGY_HH
