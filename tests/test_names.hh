/**
 * @file
 * Indexed names for test fixtures ("a0", "p17", ...).
 */

#ifndef REF_TESTS_TEST_NAMES_HH
#define REF_TESTS_TEST_NAMES_HH

#include <cstddef>
#include <string>

namespace ref::test {

/**
 * @p prefix followed by @p index. Built by appending, not as
 * "a" + std::to_string(i): GCC 12's -Wrestrict misfires at -O3 on a
 * one-character literal plus a string.
 */
inline std::string
indexedName(char prefix, std::size_t index)
{
    std::string name(1, prefix);
    name += std::to_string(index);
    return name;
}

} // namespace ref::test

#endif // REF_TESTS_TEST_NAMES_HH
