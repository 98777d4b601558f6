#include "util/logging.hh"

#include <gtest/gtest.h>

namespace {

using ref::FatalError;
using ref::PanicError;

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(REF_FATAL("bad input " << 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(REF_PANIC("impossible " << 1), PanicError);
}

TEST(Logging, FatalMessageCarriesFileAndText)
{
    try {
        REF_FATAL("user gave " << 3 << " arguments");
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("user gave 3 arguments"), std::string::npos);
        EXPECT_NE(what.find("logging_test.cc"), std::string::npos);
        EXPECT_NE(what.find("fatal"), std::string::npos);
        EXPECT_EQ(error.reason(), "user gave 3 arguments");
    }
}

TEST(Logging, RequireKeepsTheReasonApartFromTheLocation)
{
    try {
        REF_REQUIRE(1 + 1 == 3, "arithmetic is " << "broken");
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_EQ(error.reason(), "arithmetic is broken");
        // The file is named from the tree's root, so two checkouts of
        // the same code print alike.
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("fatal: tests/util/logging_test.cc:", 0), 0u)
            << what;
        EXPECT_NE(what.find("requirement '1 + 1 == 3' failed: "
                            "arithmetic is broken"),
                  std::string::npos)
            << what;
    }
}

TEST(Logging, RequirePassesOnTrueCondition)
{
    EXPECT_NO_THROW(REF_REQUIRE(1 + 1 == 2, "arithmetic"));
}

TEST(Logging, RequireThrowsOnFalseCondition)
{
    EXPECT_THROW(REF_REQUIRE(false, "always"), FatalError);
}

TEST(Logging, AssertThrowsPanicOnFalseCondition)
{
    EXPECT_THROW(REF_ASSERT(false, "broken invariant"), PanicError);
}

TEST(Logging, PanicIsLogicErrorAndFatalIsRuntimeError)
{
    EXPECT_THROW(REF_PANIC("x"), std::logic_error);
    EXPECT_THROW(REF_FATAL("x"), std::runtime_error);
}

TEST(Logging, LogLevelRoundTrips)
{
    const auto saved = ref::logLevel();
    ref::setLogLevel(ref::LogLevel::Silent);
    EXPECT_EQ(ref::logLevel(), ref::LogLevel::Silent);
    ref::setLogLevel(ref::LogLevel::Inform);
    EXPECT_EQ(ref::logLevel(), ref::LogLevel::Inform);
    ref::setLogLevel(saved);
}

TEST(Logging, WarnDoesNotThrow)
{
    const auto saved = ref::logLevel();
    ref::setLogLevel(ref::LogLevel::Silent);
    EXPECT_NO_THROW(REF_WARN("suspicious but fine"));
    EXPECT_NO_THROW(REF_INFORM("status"));
    ref::setLogLevel(saved);
}

} // namespace
