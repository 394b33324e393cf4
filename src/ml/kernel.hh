/**
 * @file
 * Kernel functions for the SVM base classifiers. The paper's
 * evaluation uses a binary SVM with a radial basis function kernel
 * (Section 4.4); the linear kernel is kept both for tests and because
 * prior in-sensor designs are linear-SVM-only (Section 1).
 *
 * Every float kernel value the classifiers use comes from one tile
 * function, PackedRows::kernelTile(): one packed multi-dot of a row
 * against simdPackWidth stored rows, then
 * K(x,z) = exp(-gamma * (|x|^2 + |z|^2 - 2 x.z)) per lane. Svm keeps
 * its support vectors in PackedRows, so per-sample and whole-set
 * inference and the serving path all run it; SMO training reads the
 * same values one row at a time from GramRows, which builds a row
 * only when the solver asks for it. The pairwise form stays as the
 * tests' oracle.
 */

#ifndef XPRO_ML_KERNEL_HH
#define XPRO_ML_KERNEL_HH

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/matrix.hh"

namespace xpro
{

/** Kernel family. */
enum class KernelKind
{
    Linear,
    Rbf,
};

/**
 * RBF value from precomputed parts: squared norms of both operands
 * plus their dot product. PackedRows::kernelTile() and
 * GramRows::diagonal() are its only callers in the classifiers; the
 * tests form their oracle from it and the scalar references.
 */
inline double
rbfFromParts(double gamma, double x_norm, double z_norm, double dot)
{
    return std::exp(-gamma * (x_norm + z_norm - 2.0 * dot));
}

/** Kernel configuration: family plus RBF width. */
struct Kernel
{
    KernelKind kind = KernelKind::Rbf;
    /** RBF gamma in K(x,z) = exp(-gamma * |x - z|^2). */
    double gamma = 1.0;

    /** Evaluate the kernel on two equally sized rows. */
    double operator()(RowView x, RowView z) const;

    /** Display name, e.g. "rbf(gamma=0.5)". */
    std::string name() const;
};

/**
 * Rows held as simdPackWidth-row tiles in simdPackRows() layout, plus
 * their squared norms: the operand of the one kernel tile function.
 * Svm stores its support vectors this way and GramRows its data.
 */
class PackedRows
{
  public:
    /** Pack every row of @p a, reusing this object's storage. */
    void assign(const FlatMatrix &a);

    /** Pack rows @p rows of @p a, in that order. */
    void assign(const FlatMatrix &a, const std::vector<size_t> &rows);

    /** Number of rows. */
    size_t size() const { return _count; }

    /** Row width. */
    size_t dims() const { return _dims; }

    /** |row k|^2, summed serially like dotProduct(row, row). */
    double norm(size_t k) const { return _norms[k]; }

    /** The rows, unpacked in order: a copy for cold callers. */
    FlatMatrix unpack() const;

    /**
     * The kernel tile: out[j] = kernel(x, row first + j) for j below
     * min(simdPackWidth, size() - first), skipping each lane whose
     * @p skip entry is nonzero when @p skip is given. One
     * simdDotPacked() over the tile that starts at row @p first (a
     * multiple of simdPackWidth), then rbfFromParts(gamma, xNorm,
     * norm(first + j), dot) per lane, or the bare dot for the linear
     * kernel. Every dot sums serially over the dimensions, so each
     * value equals the one formed from the scalar parts. @p xNorm is
     * dotProduct(x, x).
     */
    void kernelTile(const Kernel &kernel, const double *x,
                    double xNorm, size_t first, double *out,
                    const char *skip = nullptr) const;

  private:
    /** Pack rows rows[0..count) of @p a, or rows [0, count) when
     *  @p rows is null. */
    void pack(const FlatMatrix &a, const size_t *rows, size_t count);

    size_t _count = 0;
    size_t _dims = 0;
    /** Tile b holds rows [8b, 8b+8), zero-padded past _count. */
    std::vector<double> _tiles;
    std::vector<double> _norms;
};

/**
 * Rows of the self-Gram K(i,j) = kernel(a[i], a[j]), each built on
 * its first request. SMO reads only the rows of the samples its pair
 * steps pick, so most rows of a training Gram are never built.
 *
 * bind() packs the data once. Building row i copies K(i,k) from
 * every row k already built and computes the rest with
 * PackedRows::kernelTile(), so every entry is the value the trained
 * model's decision() forms for the same pair. Row storage is kept
 * across bind() calls, so one GramRows trains any number of models
 * in turn without reallocating.
 */
class GramRows
{
  public:
    /**
     * Start a new Gram over @p a, forgetting every built row. @p a
     * must outlive the rows' use.
     */
    void bind(const Kernel &kernel, const FlatMatrix &a);

    /** Number of rows (and columns). */
    size_t size() const { return _packed.size(); }

    /**
     * Row @p i, built now if it was never requested. The pointer
     * stays valid, and the row unchanged, until the next bind().
     */
    const double *row(size_t i);

    /** Whether row @p i has been built since bind(). */
    bool built(size_t i) const { return _built[i]; }

    /** K(i,i), from the row norms; needs no built row. */
    double diagonal(size_t i) const;

  private:
    Kernel _kernel;
    const FlatMatrix *_a = nullptr;
    PackedRows _packed;
    /** Row i at [i * n, (i + 1) * n); only built rows are written. */
    std::vector<double> _rows;
    std::vector<char> _built;
};

/** Squared Euclidean distance between two equally sized rows. */
double squaredDistance(RowView x, RowView z);

/** Dot product of two equally sized rows. */
double dotProduct(RowView x, RowView z);

} // namespace xpro

#endif // XPRO_ML_KERNEL_HH
