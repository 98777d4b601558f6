#include "logging.hh"

#include <atomic>
#include <iostream>

namespace ref {

namespace {

std::atomic<LogLevel> globalLogLevel{LogLevel::Warn};

std::string
formatPrefixed(const char *tag, const char *file, int line,
               const std::string &message)
{
    detail::MessageBuilder builder;
    builder << tag << ": " << file << ":" << line << ": " << message;
    return builder.str();
}

} // namespace

LogLevel
logLevel()
{
    return globalLogLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLogLevel.store(level, std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &message)
{
    throw PanicError(formatPrefixed("panic", file, line, message));
}

void
fatalImpl(const char *file, int line, const std::string &message)
{
    throw FatalError(formatPrefixed("fatal", file, line, message),
                     message);
}

void
requireImpl(const char *file, int line, const char *condition,
            const std::string &message)
{
    MessageBuilder failed;
    failed << "requirement '" << condition << "' failed: " << message;
    throw FatalError(formatPrefixed("fatal", file, line, failed.str()),
                     message);
}

void
warnImpl(const char *file, int line, const std::string &message)
{
    if (logLevel() >= LogLevel::Warn)
        std::cerr << formatPrefixed("warn", file, line, message) << "\n";
}

void
informImpl(const std::string &message)
{
    if (logLevel() >= LogLevel::Inform)
        std::cerr << "info: " << message << "\n";
}

} // namespace detail
} // namespace ref
