/**
 * @file
 * Unit tests for kernel functions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "ml/kernel.hh"

namespace
{

using namespace xpro;

TEST(KernelTest, DotProduct)
{
    const std::vector<double> x = {1.0, 2.0, 3.0};
    const std::vector<double> z = {4.0, 5.0, 6.0};
    const std::vector<double> empty;
    EXPECT_DOUBLE_EQ(dotProduct(x, z), 32.0);
    EXPECT_DOUBLE_EQ(dotProduct(empty, empty), 0.0);
}

TEST(KernelTest, SquaredDistance)
{
    const std::vector<double> origin = {0.0, 0.0};
    const std::vector<double> point = {3.0, 4.0};
    const std::vector<double> one = {1.0};
    EXPECT_DOUBLE_EQ(squaredDistance(origin, point), 25.0);
    EXPECT_DOUBLE_EQ(squaredDistance(one, one), 0.0);
}

TEST(KernelTest, SizeMismatchPanics)
{
    const std::vector<double> one = {1.0};
    const std::vector<double> two = {1.0, 2.0};
    EXPECT_THROW(dotProduct(one, two), PanicError);
    EXPECT_THROW(squaredDistance(one, two), PanicError);
}

TEST(KernelTest, LinearKernelIsDotProduct)
{
    Kernel k{KernelKind::Linear, 0.0};
    const std::vector<double> x = {1.0, 2.0};
    const std::vector<double> z = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(k(x, z), 11.0);
}

TEST(KernelTest, RbfAtZeroDistanceIsOne)
{
    Kernel k{KernelKind::Rbf, 0.7};
    const std::vector<double> x = {1.0, -2.0};
    EXPECT_DOUBLE_EQ(k(x, x), 1.0);
}

TEST(KernelTest, RbfDecaysWithDistance)
{
    Kernel k{KernelKind::Rbf, 0.5};
    const std::vector<double> origin = {0.0};
    const std::vector<double> near_point = {0.5};
    const std::vector<double> far_point = {2.0};
    const double near = k(origin, near_point);
    const double far = k(origin, far_point);
    EXPECT_GT(near, far);
    EXPECT_NEAR(near, std::exp(-0.5 * 0.25), 1e-12);
    EXPECT_NEAR(far, std::exp(-0.5 * 4.0), 1e-12);
}

TEST(KernelTest, RbfGammaControlsWidth)
{
    Kernel narrow{KernelKind::Rbf, 5.0};
    Kernel wide{KernelKind::Rbf, 0.1};
    const std::vector<double> origin = {0.0};
    const std::vector<double> unit = {1.0};
    EXPECT_LT(narrow(origin, unit), wide(origin, unit));
}

TEST(KernelTest, RbfIsSymmetric)
{
    Kernel k{KernelKind::Rbf, 1.3};
    const std::vector<double> x = {0.2, -0.7, 1.5};
    const std::vector<double> z = {1.0, 0.0, -0.5};
    EXPECT_DOUBLE_EQ(k(x, z), k(z, x));
}

TEST(KernelTest, Names)
{
    EXPECT_EQ(Kernel{KernelKind::Linear}.name(), "linear");
    EXPECT_NE(Kernel({KernelKind::Rbf, 0.5}).name().find("rbf"),
              std::string::npos);
}

} // namespace
