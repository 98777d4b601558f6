/**
 * @file
 * Status and error reporting for the REF library.
 *
 * Follows the gem5 convention in spirit: panic-class errors flag
 * internal invariant violations (library bugs), fatal-class errors
 * flag unrecoverable user errors (bad configuration, invalid
 * arguments), and warn()/inform() report conditions that do not stop
 * execution. Because this is a library, the terminating variants
 * throw typed exceptions instead of calling abort()/exit(), so hosts
 * and tests can intercept them.
 */

#ifndef REF_UTIL_LOGGING_HH
#define REF_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace ref {

/** Thrown on internal invariant violations: a bug in REF itself. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

/**
 * Thrown on unrecoverable user errors (bad inputs, bad config).
 * what() carries the source location for a tool's stderr; reason()
 * is the bare message, which is what a protocol client is told.
 */
class FatalError : public std::runtime_error
{
  public:
    FatalError(const std::string &what_arg, std::string reason)
        : std::runtime_error(what_arg), reason_(std::move(reason))
    {}

    /** The message without location or failed condition. */
    const std::string &reason() const { return reason_; }

  private:
    std::string reason_;
};

/** Verbosity levels for non-terminating messages. */
enum class LogLevel { Silent, Warn, Inform };

/** Global verbosity for warn()/inform(); defaults to LogLevel::Warn. */
LogLevel logLevel();

/** Set the global verbosity for warn()/inform(). */
void setLogLevel(LogLevel level);

namespace detail {

/** Throw PanicError after formatting a file:line prefix. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);

/** Throw FatalError after formatting a file:line prefix. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &message);

/** Throw FatalError for a failed REF_REQUIRE: what() names the
 *  condition, reason() is @p message alone. */
[[noreturn]] void requireImpl(const char *file, int line,
                              const char *condition,
                              const std::string &message);

/** Print a warning to stderr when the log level allows. */
void warnImpl(const char *file, int line, const std::string &message);

/** Print routine status to stderr when the log level allows. */
void informImpl(const std::string &message);

/** Stream-style message builder used by the macros below. */
class MessageBuilder
{
  public:
    template <typename T>
    MessageBuilder &
    operator<<(const T &value)
    {
        stream_ << value;
        return *this;
    }

    std::string str() const { return stream_.str(); }

  private:
    std::ostringstream stream_;
};

} // namespace detail
} // namespace ref

/**
 * Raise a PanicError. Use for conditions that indicate a bug in the
 * REF library itself, never for user errors.
 */
#define REF_PANIC(msg)                                                      \
    ::ref::detail::panicImpl(__FILE__, __LINE__,                            \
        (::ref::detail::MessageBuilder() << msg).str())

/**
 * Raise a FatalError. Use for conditions caused by the caller (bad
 * configuration, invalid arguments) that make continuing impossible.
 */
#define REF_FATAL(msg)                                                      \
    ::ref::detail::fatalImpl(__FILE__, __LINE__,                            \
        (::ref::detail::MessageBuilder() << msg).str())

/** Warn about a survivable but suspicious condition. */
#define REF_WARN(msg)                                                       \
    ::ref::detail::warnImpl(__FILE__, __LINE__,                             \
        (::ref::detail::MessageBuilder() << msg).str())

/** Report routine status to the user. */
#define REF_INFORM(msg)                                                     \
    ::ref::detail::informImpl(                                              \
        (::ref::detail::MessageBuilder() << msg).str())

/** Check an invariant; raises PanicError (library bug) when violated. */
#define REF_ASSERT(cond, msg)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            REF_PANIC("assertion '" #cond "' failed: " << msg);            \
        }                                                                   \
    } while (0)

/** Validate a caller argument; raises FatalError when violated. */
#define REF_REQUIRE(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ref::detail::requireImpl(__FILE__, __LINE__, #cond,           \
                (::ref::detail::MessageBuilder() << msg).str());            \
        }                                                                   \
    } while (0)

#endif // REF_UTIL_LOGGING_HH
