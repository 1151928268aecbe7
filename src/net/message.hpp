// message.hpp - the framed message that every TDP daemon pair exchanges.
//
// One message format serves all protocols in the system (attribute space,
// Condor claiming protocol, Paradyn front-end <-> paradynd, MRNet-lite):
// a 16-bit type, a 64-bit sequence number for request/reply correlation,
// and a string->string field table, reflecting the paper's decision to keep
// all exchanged data as null-terminated strings (Section 3.2).
//
// Wire format (little-endian; DESIGN.md §13):
//   u32 payload_len | u8 0xFD | u8 version(=2) | u8 flags(=0) | u16 type |
//   varint seq | varint nfields | field*
//   field: u8 tag | varint body_len | body
//     tag 0x01 (interned): body = u16 field_id | value bytes
//     tag 0x02 (named):    body = varint klen | key bytes | value bytes
// Well-known keys (protocol fields, the _tc trace header, batch k<i>/v<i>
// slots) are interned to u16 ids by a table private to message.cpp; every
// other key rides as a named field. A frame with any other tag, or with
// an id the table does not know, is malformed.
//
// Fast-path notes:
//   * Fields live in a small flat vector in insertion order. Messages carry
//     fewer than ~16 fields, so linear scans beat a node-based map and every
//     lookup is allocation-free (string_view compare).
//   * encode() precomputes the frame size and fills one contiguous buffer;
//     encode_into() reuses a caller-owned buffer so steady-state senders do
//     no allocation at all.
//   * MessageView parses a frame in place and yields string_view fields over
//     the receive buffer, so a server's request path does no per-field
//     allocation (see Endpoint::receive_view).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace tdp::net {

/// The frame encoding described above, the only one. Nothing selects it:
/// only the defaulted argument of Message::encode_into still names it.
enum class WireVersion : std::uint8_t { kV2 = 2 };

/// Message type codes. One flat space keeps the framing layer protocol-
/// agnostic; each subsystem uses its own contiguous range.
enum class MsgType : std::uint16_t {
  kInvalid = 0,

  // --- attribute space protocol (Section 3.2) ---
  kAttrPut = 100,
  kAttrPutReply = 101,
  kAttrGet = 102,
  kAttrGetReply = 103,
  kAttrAsyncGet = 104,   ///< get that may be parked until the attribute appears
  kAttrSubscribe = 105,  ///< asynchronous notification registration (Section 2.1)
  kAttrNotify = 106,
  kAttrExit = 107,       ///< tdp_exit: detach from a context
  kAttrRemove = 108,
  kAttrList = 109,
  kAttrListReply = 110,
  kAttrInit = 111,       ///< tdp_init: join a context (refcounted)
  kAttrInitReply = 112,
  kAttrPutBatch = 113,   ///< N coalesced puts, one round trip, one ack

  // --- proxy / tunnel (Section 2.4) ---
  kProxyConnect = 300,   ///< open a relay to a registered logical service
  kProxyConnectReply = 301,
  kProxyData = 302,      ///< encapsulated payload relayed through the tunnel

  // --- Condor protocols (Figure 4) ---
  kCondorSubmit = 400,
  kCondorSubmitReply = 401,
  kCondorMatch = 402,        ///< matchmaker -> schedd: machine found
  kCondorClaim = 403,        ///< schedd -> startd claiming protocol
  kCondorClaimReply = 404,
  kCondorActivate = 405,     ///< shadow -> startd: start the job
  kCondorJobStatus = 406,    ///< starter -> shadow status updates
  kCondorRemoteSyscall = 407,///< starter/job -> shadow remote file I/O
  kCondorRemoteSyscallReply = 408,

  // --- Paradyn protocols (Section 4.2) ---
  kParadynReport = 500,    ///< paradynd -> front-end: metric samples
  kParadynCommand = 501,   ///< front-end -> paradynd: run/pause/instrument
  kParadynCommandReply = 502,
  kParadynHello = 503,     ///< paradynd announces itself to the front-end

  // --- MRNet-lite (auxiliary service) ---
  kMrnetBroadcast = 600,
  kMrnetReduce = 601,
  kMrnetReduceReply = 602,

  // --- generic control ---
  kPing = 900,
  kPong = 901,
  kShutdown = 902,
};

/// A typed, string-keyed message. Regular value type (Core Guidelines C.11).
/// Keys are unique (set() overwrites); fields keep insertion order.
class Message {
 public:
  struct Field {
    std::string key;
    std::string value;

    friend bool operator==(const Field& a, const Field& b) {
      return a.key == b.key && a.value == b.value;
    }
  };

  Message() = default;
  explicit Message(MsgType type) : type_(type) {}

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  void set_type(MsgType type) noexcept { type_ = type; }

  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  void set_seq(std::uint64_t seq) noexcept { seq_ = seq; }

  /// Sets a field, overwriting any previous value. Returns *this to allow
  /// fluent construction of protocol messages.
  Message& set(std::string key, std::string value);
  Message& set_int(std::string key, std::int64_t value);

  /// Appends a field without scanning for an existing key — O(1) instead of
  /// O(fields). For batch builders that guarantee key uniqueness themselves
  /// (k0/v0/k1/v1...); violating that breaks the unique-keys invariant.
  Message& add(std::string key, std::string value);

  [[nodiscard]] bool has(std::string_view key) const;
  /// Returns the field value, or `fallback` when absent.
  [[nodiscard]] std::string get(std::string_view key,
                                std::string_view fallback = "") const;
  /// Borrowed view of the field value (no copy); valid while the message
  /// is alive and unmodified.
  [[nodiscard]] std::string_view get_view(std::string_view key,
                                          std::string_view fallback = "") const;
  /// Integer view of a field; returns fallback when absent or non-numeric.
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const;

  [[nodiscard]] const std::vector<Field>& fields() const noexcept {
    return fields_;
  }

  /// Pre-sizes the field table (batch builders).
  void reserve_fields(std::size_t n) { fields_.reserve(n); }

  /// Serializes to the wire format described in the header comment.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Serializes into `out`, reusing its capacity (out is overwritten).
  /// Steady-state senders with a warm buffer allocate nothing.
  void encode_into(std::vector<std::uint8_t>& out,
                   WireVersion version = WireVersion::kV2) const;

  /// Exact frame size encode() produces (prefix included).
  [[nodiscard]] std::size_t encoded_size() const noexcept;

  /// Decodes a full frame (including the u32 length prefix). Returns
  /// kInvalidArgument on truncated or malformed input, which includes a
  /// field with an unknown tag or an unregistered interned id. Duplicate
  /// keys on the wire merge (last occurrence wins), matching set()
  /// semantics.
  static Result<Message> decode(const std::uint8_t* data, std::size_t size);

  /// Reads the payload length from a 4-byte prefix.
  static std::uint32_t peek_length(const std::uint8_t* prefix) noexcept;

  /// Bytes of the length prefix.
  static constexpr std::size_t kLenPrefixSize = 4;
  /// Upper bound accepted for one payload; protects servers against
  /// corrupted prefixes.
  static constexpr std::uint32_t kMaxPayload = 64u * 1024u * 1024u;

  /// Field-order-insensitive equality (keys are unique per message).
  friend bool operator==(const Message& a, const Message& b);

  /// Debug rendering: "AttrPut{seq=3, attr=pid, value=1234}".
  [[nodiscard]] std::string to_string() const;

 private:
  MsgType type_ = MsgType::kInvalid;
  std::uint64_t seq_ = 0;
  std::vector<Field> fields_;
};

/// Zero-copy decoded frame: header plus string_view fields borrowing the
/// buffer given to parse() (or an adopted Message). Reusing one MessageView
/// across receives amortizes its field-table allocation away, so a server
/// request path touches no allocator per message.
///
/// Lifetime: after parse(), views are valid while the source buffer is;
/// after adopt(), the view owns the message and views point into it. Any
/// parse()/adopt() invalidates previous views.
class MessageView {
 public:
  struct FieldView {
    std::string_view key;
    std::string_view value;
  };

  MessageView() = default;

  /// Parses a full frame (length prefix included) in place. The buffer
  /// must outlive the view. Same validation as Message::decode; duplicate
  /// wire keys are kept (lookups return the last occurrence, matching
  /// decode()). Interned keys view the static key table, so they are
  /// zero-copy too.
  Status parse(const std::uint8_t* data, std::size_t size);

  /// Takes ownership of a decoded message (transports that queue Message
  /// objects instead of bytes) and exposes it through the same interface.
  void adopt(Message msg);

  [[nodiscard]] MsgType type() const noexcept { return type_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::string_view get(std::string_view key,
                                     std::string_view fallback = "") const;
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback = 0) const;

  [[nodiscard]] const std::vector<FieldView>& fields() const noexcept {
    return fields_;
  }
  [[nodiscard]] std::size_t field_count() const noexcept { return fields_.size(); }

  /// Materializes an owned Message (copying the viewed bytes).
  [[nodiscard]] Message to_message() const;

 private:
  MsgType type_ = MsgType::kInvalid;
  std::uint64_t seq_ = 0;
  std::vector<FieldView> fields_;
  Message owned_;  ///< backing storage for adopt(); empty after parse()
};

/// Short human-readable name of a message type.
const char* msg_type_name(MsgType type) noexcept;

/// Reserved field key carrying the compact telemetry trace header
/// ("1-<trace-hex>-<span-hex>", see util/telemetry.hpp format_context).
/// It rides the ordinary field table, so a reader that does not look for
/// it ignores it like any other field; the header itself is versioned for
/// the day its encoding changes. The "_" prefix keeps it out of the
/// application's attribute key namespace.
inline constexpr const char* kTraceField = "_tc";

}  // namespace tdp::net
