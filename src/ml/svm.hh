/**
 * @file
 * Binary support vector machine trained with sequential minimal
 * optimization (SMO). This is the base classifier of the random
 * subspace ensemble (paper Section 2.1), and the number of support
 * vectors of a trained model drives the hardware cost of its SVM
 * functional cell.
 *
 * The hot path is batch-first: the SMO solver runs on a cached error
 * vector and reads Gram rows from GramRows, which builds a row the
 * first time a pair step picks its sample. It picks each pair by
 * second-order working-set selection (Fan, Chen & Lin, JMLR 2005, as
 * in LIBSVM) and stops when the maximal violating pair's gap is
 * below the tolerance. Every support vector's row exists by then, so
 * training also yields the decision values of its own rows without
 * evaluating the kernel again.
 *
 * A trained model keeps its support vectors only as PackedRows
 * tiles. decision() is the bias plus one weighted kernel term per
 * support vector in order, a kernel tile at a time; decisionBatch(),
 * the serving path (serve/hot_path.hh) and the fit-row decisions
 * give the same value bit for bit.
 */

#ifndef XPRO_ML_SVM_HH
#define XPRO_ML_SVM_HH

#include <cstddef>
#include <vector>

#include "common/matrix.hh"
#include "ml/kernel.hh"

namespace xpro
{

/** Labeled dataset: flat row-major features plus +-1 labels. */
struct LabeledData
{
    FlatMatrix rows;
    std::vector<int> labels;

    size_t size() const { return rows.size(); }
    size_t dimension() const { return rows.cols(); }
};

/** SVM training hyper-parameters. */
struct SvmConfig
{
    Kernel kernel;
    /** Soft-margin penalty. */
    double c = 1.0;
    /** Training stops once the maximal violating pair's gap is
     *  below this. */
    double tolerance = 1e-3;
};

/** The dual solution one SMO training reached. */
struct SmoSolution
{
    /** One multiplier per training sample, each in [0, C]. */
    std::vector<double> alpha;
    double bias = 0.0;
    /** Pair steps taken. */
    size_t steps = 0;
    /** True when the step cap, not the gap, ended the solve. */
    bool capped = false;
};

/**
 * The solver behind Svm::train, on the training Gram's rows:
 * minimise the SVM dual over alpha in [0, c] with
 * sum_t alpha_t y_t = 0 until the maximal violating pair's gap is
 * below @p tolerance. Builds the rows of the samples its pair steps
 * pick, so every sample with alpha > 0 has its row built on return.
 * Exposed so tests can check the stopping rule against the
 * multipliers.
 */
SmoSolution solveSmo(GramRows &gram, const std::vector<int> &labels,
                     double c, double tolerance);

/** A trained binary SVM. */
class Svm
{
  public:
    Svm() = default;

    /**
     * A model from its parts: @p supportVectors (their column count
     * is the input dimension), one alpha_i * y_i weight per support
     * vector, and the bias.
     */
    Svm(const Kernel &kernel, double bias,
        const FlatMatrix &supportVectors, std::vector<double> weights);

    /**
     * Train on @p data with labels in {-1, +1}. The data must
     * contain both classes. When @p fit_decisions is given it
     * receives decision() of every training row, bit-identical to
     * decisionBatch(data.rows) and read from the Gram rows the
     * solver built. The rows live in @p gram when given, so a caller
     * training many models reuses one row buffer; otherwise in a
     * local one.
     */
    static Svm train(const LabeledData &data, const SvmConfig &config,
                     std::vector<double> *fit_decisions = nullptr,
                     GramRows *gram = nullptr);

    /** Signed decision value; positive means class +1. */
    double decision(RowView x) const;

    /** Predicted label in {-1, +1}. */
    int predict(RowView x) const;

    /** decision() of every row of @p rows. */
    std::vector<double> decisionBatch(const FlatMatrix &rows) const;

    /** Predicted labels for every row of @p rows. */
    std::vector<int> predictBatch(const FlatMatrix &rows) const;

    /** Fraction of correct predictions on @p data. */
    double accuracy(const LabeledData &data) const;

    /** Number of support vectors retained. */
    size_t supportVectorCount() const { return _supportVectors.size(); }

    /** Input dimensionality. */
    size_t dimension() const { return _supportVectors.dims(); }

    const Kernel &kernel() const { return _kernel; }
    double bias() const { return _bias; }

    /** The support vectors, unpacked (for quantized inference and
     *  digests; decisions read the tiles). */
    FlatMatrix supportVectors() const { return _supportVectors.unpack(); }

    /** alpha_i * y_i weight per support vector. */
    const std::vector<double> &weights() const { return _weights; }

  private:
    Kernel _kernel;
    double _bias = 0.0;
    PackedRows _supportVectors;
    /** alpha_i * y_i for each support vector. */
    std::vector<double> _weights;
};

} // namespace xpro

#endif // XPRO_ML_SVM_HH
