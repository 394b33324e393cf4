/**
 * @file
 * FNV-1a over 64-bit words, for the digest fences that pin datasets,
 * trained models and topologies bit for bit.
 */

#ifndef XPRO_TESTS_FNV_DIGEST_HH
#define XPRO_TESTS_FNV_DIGEST_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace xpro::test
{

/** FNV-1a over the little-endian bytes of each added word. */
class Fnv1aDigest
{
  public:
    void
    add(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            _hash ^= (value >> (8 * byte)) & 0xFF;
            _hash *= 0x100000001B3ull;
        }
    }

    void add(double value) { add(std::bit_cast<uint64_t>(value)); }

    /** The element count, then every element. */
    void
    add(const std::vector<double> &values)
    {
        add(static_cast<uint64_t>(values.size()));
        for (double v : values)
            add(v);
    }

    /** The length, then every character. */
    void
    add(const std::string &text)
    {
        add(static_cast<uint64_t>(text.size()));
        for (char c : text)
            add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }

    uint64_t value() const { return _hash; }

  private:
    uint64_t _hash = 0xCBF29CE484222325ull;
};

} // namespace xpro::test

#endif // XPRO_TESTS_FNV_DIGEST_HH
