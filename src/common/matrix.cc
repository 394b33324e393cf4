#include "common/matrix.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"

namespace xpro
{

FlatMatrix::FlatMatrix(size_t rows, size_t cols, double fill)
    : _rows(rows), _cols(cols), _data(rows * cols, fill)
{
}

FlatMatrix::FlatMatrix(
    std::initializer_list<std::initializer_list<double>> rows)
{
    for (const auto &row : rows)
        push_back(RowView(row.begin(), row.size()));
}

FlatMatrix
FlatMatrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    FlatMatrix out;
    if (!rows.empty()) {
        out._cols = rows.front().size();
        out._data.reserve(rows.size() * out._cols);
    }
    for (const auto &row : rows)
        out.push_back(row);
    return out;
}

void
FlatMatrix::push_back(RowView row)
{
    if (_rows == 0 && _cols == 0) {
        _cols = row.size();
    } else {
        xproAssert(row.size() == _cols,
                   "row length %zu does not match matrix width %zu",
                   row.size(), _cols);
    }
    _data.insert(_data.end(), row.begin(), row.end());
    ++_rows;
}

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : _rows(rows), _cols(cols), _data(rows * cols, fill)
{
}

Matrix
Matrix::identity(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
Matrix::columnVector(const std::vector<double> &values)
{
    Matrix m(values.size(), 1);
    for (size_t i = 0; i < values.size(); ++i)
        m.at(i, 0) = values[i];
    return m;
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    xproAssert(_rows == other._rows && _cols == other._cols,
               "matrix shape mismatch in +");
    Matrix out(_rows, _cols);
    for (size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] + other._data[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    xproAssert(_rows == other._rows && _cols == other._cols,
               "matrix shape mismatch in -");
    Matrix out(_rows, _cols);
    for (size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] - other._data[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    xproAssert(_cols == other._rows,
               "matrix shape mismatch in *: %zux%zu by %zux%zu",
               _rows, _cols, other._rows, other._cols);
    Matrix out(_rows, other._cols);
    for (size_t i = 0; i < _rows; ++i) {
        for (size_t k = 0; k < _cols; ++k) {
            const double lhs = at(i, k);
            if (lhs == 0.0)
                continue;
            for (size_t j = 0; j < other._cols; ++j)
                out.at(i, j) += lhs * other.at(k, j);
        }
    }
    return out;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out(_rows, _cols);
    for (size_t i = 0; i < _data.size(); ++i)
        out._data[i] = _data[i] * scalar;
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(_cols, _rows);
    for (size_t i = 0; i < _rows; ++i)
        for (size_t j = 0; j < _cols; ++j)
            out.at(j, i) = at(i, j);
    return out;
}

double
Matrix::norm() const
{
    double sum = 0.0;
    for (double v : _data)
        sum += v * v;
    return std::sqrt(sum);
}

std::vector<double>
Matrix::flatten() const
{
    return _data;
}

Matrix
Matrix::solve(Matrix a, Matrix b)
{
    xproAssert(a._rows == a._cols, "solve() needs a square matrix");
    xproAssert(b._rows == a._rows && b._cols == 1,
               "solve() needs a matching column vector");
    const size_t n = a._rows;

    for (size_t col = 0; col < n; ++col) {
        // Partial pivoting.
        size_t pivot = col;
        for (size_t r = col + 1; r < n; ++r) {
            if (std::fabs(a.at(r, col)) > std::fabs(a.at(pivot, col)))
                pivot = r;
        }
        if (std::fabs(a.at(pivot, col)) < 1e-12)
            fatal("singular system in Matrix::solve at column %zu", col);
        if (pivot != col) {
            for (size_t j = 0; j < n; ++j)
                std::swap(a.at(col, j), a.at(pivot, j));
            std::swap(b.at(col, 0), b.at(pivot, 0));
        }

        const double diag = a.at(col, col);
        for (size_t r = col + 1; r < n; ++r) {
            const double factor = a.at(r, col) / diag;
            if (factor == 0.0)
                continue;
            for (size_t j = col; j < n; ++j)
                a.at(r, j) -= factor * a.at(col, j);
            b.at(r, 0) -= factor * b.at(col, 0);
        }
    }

    Matrix x(n, 1);
    for (size_t i = n; i-- > 0;) {
        double acc = b.at(i, 0);
        for (size_t j = i + 1; j < n; ++j)
            acc -= a.at(i, j) * x.at(j, 0);
        x.at(i, 0) = acc / a.at(i, i);
    }
    return x;
}

Matrix
Matrix::leastSquares(const Matrix &a, const Matrix &b, double ridge)
{
    xproAssert(a._rows == b._rows && b._cols == 1,
               "leastSquares() shape mismatch");
    const Matrix at_mat = a.transpose();
    Matrix normal = at_mat * a;
    for (size_t i = 0; i < normal.rows(); ++i)
        normal.at(i, i) += ridge;
    const Matrix rhs = at_mat * b;
    return solve(std::move(normal), rhs);
}

} // namespace xpro
