// The wire envelope of the serving protocol: a length-prefixed, checksummed
// binary frame carrying one serve_api payload (an encoded ServeRequest or
// ServeResponse), deliberately shaped like the rom::io artifact envelope so
// the two integrity stories are one idiom:
//
//   "ATMORNET" magic | u32 protocol version | u8 FrameKind |
//   u64 payload size | payload bytes | u64 FNV-1a checksum of the payload
//
// Every failure mode a socket can feed us -- a short read, a foreign
// protocol, a version skew, flipped bits, an absurd length announcing more
// than the peer may send -- surfaces as a typed ProtocolError mirroring the
// IoError taxonomy, with a stable numeric code (util/error_codes.hpp) so a
// client can report it exactly like an in-process failure. Like the
// artifact format, frames assume a little-endian host on both ends.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/error_codes.hpp"

namespace atmor::net {

/// Bumped on any frame-layout or serve_api payload-layout change; a daemon
/// only ever speaks one version (no best-effort parsing of future frames).
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Frames a peer may send without being cut off. Generous: a response
/// carrying dense sweep matrices is megabytes, not gigabytes. The daemon's
/// DaemonOptions can lower it per deployment.
inline constexpr std::uint64_t kDefaultMaxFrameBytes = 64ull << 20;

/// What the frame carries; a daemon rejects response frames and a client
/// rejects request frames as corrupt instead of mis-parsing them.
enum class FrameKind : std::uint8_t { request = 0, response = 1 };

enum class ProtocolErrorKind {
    socket_failed,      ///< connect/read/write failed at the OS level
    truncated,          ///< peer closed mid-frame
    bad_magic,          ///< not the atmor serving protocol at all
    version_mismatch,   ///< peer speaks a different protocol version
    checksum_mismatch,  ///< payload bytes damaged in flight
    oversized,          ///< announced payload exceeds the frame budget
    corrupt,            ///< frame intact but the content is invalid
};

const char* to_string(ProtocolErrorKind kind);

/// The stable numeric code for a ProtocolErrorKind (same mapping idiom as
/// rom::error_code(IoErrorKind)).
[[nodiscard]] constexpr util::ErrorCode error_code(ProtocolErrorKind kind) {
    switch (kind) {
        case ProtocolErrorKind::socket_failed: return util::ErrorCode::proto_socket_failed;
        case ProtocolErrorKind::truncated: return util::ErrorCode::proto_truncated;
        case ProtocolErrorKind::bad_magic: return util::ErrorCode::proto_bad_magic;
        case ProtocolErrorKind::version_mismatch:
            return util::ErrorCode::proto_version_mismatch;
        case ProtocolErrorKind::checksum_mismatch:
            return util::ErrorCode::proto_checksum_mismatch;
        case ProtocolErrorKind::oversized: return util::ErrorCode::proto_oversized;
        case ProtocolErrorKind::corrupt: return util::ErrorCode::proto_corrupt;
    }
    return util::ErrorCode::proto_corrupt;
}

class ProtocolError : public std::runtime_error {
public:
    ProtocolError(ProtocolErrorKind kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}
    [[nodiscard]] ProtocolErrorKind kind() const { return kind_; }

private:
    ProtocolErrorKind kind_;
};

/// Fixed frame overhead: magic(8) + version(4) + kind(1) + size(8) before
/// the payload, checksum(8) after it.
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 1 + 8;
inline constexpr std::size_t kFrameChecksumBytes = 8;

/// Wrap a serve_api payload in the protocol envelope.
[[nodiscard]] std::string frame_message(FrameKind kind, const std::string& payload);

/// Incremental parser over a connection's receive buffer: try to take ONE
/// complete frame off the front of `buffer`.
///   * Returns 0 when the buffer holds only a PREFIX of a valid frame (read
///     more and try again); the buffer is untouched.
///   * On success returns the number of bytes the frame occupied (caller
///     erases them) and fills kind/payload.
///   * Malformed data throws the typed ProtocolError taxonomy: bad_magic /
///     version_mismatch / oversized are detectable from the header alone
///     (and are detected eagerly, before waiting for more bytes);
///     checksum_mismatch once the full frame is present.
/// The caller decides which errors are connection-fatal; the frame
/// boundary itself is recoverable for checksum_mismatch (the full frame
/// length is known, so the caller MAY skip it and keep the connection).
[[nodiscard]] std::size_t try_unframe(const std::string& buffer, FrameKind* kind_out,
                                      std::string* payload_out,
                                      std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Strict whole-buffer form (tests, blocking client): `bytes` must hold
/// exactly one frame. An incomplete frame throws truncated; trailing bytes
/// after the frame throw corrupt.
[[nodiscard]] std::string unframe_message(const std::string& bytes, FrameKind* kind_out,
                                          std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace atmor::net
