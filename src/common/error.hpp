#pragma once

// Error handling: exceptions derived from hawc::error for recoverable
// failures, HAWC_REQUIRE for precondition checks at API boundaries.

#include <source_location>
#include <stdexcept>
#include <string>

namespace hawc {

/// Base class for all library exceptions.
class error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Thrown when an argument or configuration value is invalid.
class invalid_argument_error : public error {
public:
    using error::error;
};

/// Thrown when an I/O operation (dataset/model file) fails.
class io_error : public error {
public:
    using error::error;
};

/// Thrown when a model or pipeline is used before being trained/loaded.
class not_ready_error : public error {
public:
    using error::error;
};

/// Thrown when data fails integrity validation: non-finite sensor
/// returns, corrupted model activations, impossible geometry. The
/// streaming runtime treats this as recoverable and degrades the frame.
class data_integrity_error : public error {
public:
    using error::error;
};

namespace detail {
[[noreturn]] void throw_requirement_failure(const char* expr, const std::string& message,
                                            const std::source_location& loc);
}  // namespace detail

/// Precondition check for public API boundaries. Throws invalid_argument_error
/// with file/line context when `expr` is false. Always evaluated (not an assert).
#define HAWC_REQUIRE(expr, message)                                                        \
    do {                                                                                   \
        if (!(expr)) {                                                                     \
            ::hawc::detail::throw_requirement_failure(#expr, (message),                    \
                                                      std::source_location::current());    \
        }                                                                                  \
    } while (false)

}  // namespace hawc
