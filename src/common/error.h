// Error and status types shared across the RLS reproduction.
//
// The original Globus RLS reported errors through globus_result_t codes.
// We use a small Status/exception pair instead: cheap Status values for
// expected control-flow outcomes (e.g. "mapping not found") and exceptions
// for programming errors and unrecoverable conditions.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace rlscommon {

/// Error categories mirroring the RLS client error codes
/// (globus_rls_client.h in the original implementation).
enum class ErrorCode {
  kOk = 0,
  kNotFound,        // LFN / PFN / attribute does not exist
  kAlreadyExists,   // mapping or attribute already present
  kInvalidArgument, // malformed name, bad wildcard, bad parameter
  kPermissionDenied,// ACL check failed
  kUnauthenticated, // no credential presented and auth required
  kUnavailable,     // server shut down / connection closed
  kTimeout,         // RPC deadline exceeded
  kInternal,        // invariant violation inside a server
  kDatabase,        // back-end database reported an error
  kProtocol,        // malformed wire message
  kUnsupported,     // e.g. wildcard query against a Bloom-filter RLI
  kDataLoss,        // storage fail-stop: WAL write/sync failed, data at risk
  kLast = kDataLoss,  // wire decoders reject codes above this
};

/// Human-readable name of an ErrorCode ("NOT_FOUND", ...).
std::string_view ErrorCodeName(ErrorCode code);

/// True for transient transport-level failures worth retrying: the server
/// was unreachable (kUnavailable) or did not answer within the deadline
/// (kTimeout). Everything else — including kProtocol (a malformed reply:
/// retrying won't unscramble it) and all application errors — is final.
constexpr bool IsRetryableError(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout;
}

/// Lightweight result status. Functions that can fail in expected ways
/// return Status (or StatusOr-like pairs) instead of throwing.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(ErrorCode::kOk) {}
  /// Constructs a status with a code and a diagnostic message.
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) { return {ErrorCode::kNotFound, std::move(m)}; }
  static Status AlreadyExists(std::string m) { return {ErrorCode::kAlreadyExists, std::move(m)}; }
  static Status InvalidArgument(std::string m) { return {ErrorCode::kInvalidArgument, std::move(m)}; }
  static Status PermissionDenied(std::string m) { return {ErrorCode::kPermissionDenied, std::move(m)}; }
  static Status Unauthenticated(std::string m) { return {ErrorCode::kUnauthenticated, std::move(m)}; }
  static Status Unavailable(std::string m) { return {ErrorCode::kUnavailable, std::move(m)}; }
  static Status Timeout(std::string m) { return {ErrorCode::kTimeout, std::move(m)}; }
  static Status Internal(std::string m) { return {ErrorCode::kInternal, std::move(m)}; }
  static Status Database(std::string m) { return {ErrorCode::kDatabase, std::move(m)}; }
  static Status Protocol(std::string m) { return {ErrorCode::kProtocol, std::move(m)}; }
  static Status Unsupported(std::string m) { return {ErrorCode::kUnsupported, std::move(m)}; }
  static Status DataLoss(std::string m) { return {ErrorCode::kDataLoss, std::move(m)}; }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Attaches a retry-after hint to a retryable status. An overloaded
  /// server sheds with UNAVAILABLE plus this hint; the client's retry
  /// policy backs off at least that long before the next attempt.
  Status& WithRetryAfter(std::chrono::milliseconds hint) {
    retry_after_ms_ = hint.count() > 0 ? static_cast<uint32_t>(hint.count()) : 0;
    return *this;
  }

  /// Server-suggested minimum backoff; zero = no hint.
  std::chrono::milliseconds retry_after() const {
    return std::chrono::milliseconds(retry_after_ms_);
  }

  /// "OK" or "NOT_FOUND: lfn does not exist".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  ErrorCode code_;
  std::string message_;
  uint32_t retry_after_ms_ = 0;
};

/// Exception thrown for unrecoverable failures (and by the convenience
/// throwing wrappers in the client API).
class RlsError : public std::runtime_error {
 public:
  RlsError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(ErrorCodeName(code)) + ": " + message),
        code_(code) {}
  explicit RlsError(const Status& status)
      : RlsError(status.code(), status.message()) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Throws RlsError if `status` is not OK. Use at API boundaries where a
/// failure indicates a caller bug or an unrecoverable condition.
inline void ThrowIfError(const Status& status) {
  if (!status.ok()) throw RlsError(status);
}

}  // namespace rlscommon
