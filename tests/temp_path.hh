/**
 * @file
 * Per-test temporary file names for the unit tests.
 */

#ifndef CCP_TESTS_TEMP_PATH_HH
#define CCP_TESTS_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>

namespace ccp::testutil {

/**
 * A path under the gtest temp directory private to the running test
 * case and process: "<Suite>.<Test>.<pid>.<name>".  ctest runs every
 * case as its own process, often several at once (and several build
 * trees may share one temp directory), so a fixed name would let one
 * case read, truncate or remove another's file.
 */
inline std::string
tempPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = std::string(info->test_suite_name()) + "." +
                      info->name();
    // Parameterized cases are named "Prefix/Suite.Test/N".
    std::replace(tag.begin(), tag.end(), '/', '_');
    std::string dir = ::testing::TempDir();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    return dir + tag + "." + std::to_string(::getpid()) + "." + name;
}

} // namespace ccp::testutil

#endif // CCP_TESTS_TEMP_PATH_HH
