#include "net/message.hpp"

#include <charconv>
#include <cstring>
#include <string>
#include <unordered_map>

namespace tdp::net {

namespace {

/// Little-endian writers over a raw output cursor. The frame size is known
/// before writing, so encoding is a single resize + sequential stores.
inline std::uint8_t* put_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xff);
  p[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  return p + 2;
}

inline std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
  return p + 4;
}

inline std::uint8_t* put_bytes(std::uint8_t* p, const void* data, std::size_t n) {
  if (n != 0) std::memcpy(p, data, n);
  return p + n;
}

/// LEB128 varint. Sizes and writes agree byte-for-byte so the two-pass
/// encode (size, then fill) never reallocates.
inline std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// payload[0] of every frame.
constexpr std::uint8_t kMarker = 0xFD;

/// Field tags. Any other tag is a malformed frame.
constexpr std::uint8_t kTagInterned = 0x01;
constexpr std::uint8_t kTagNamed = 0x02;

/// The interned keys, in id order starting at id 1 (id 0 means "no id").
/// Every peer is built from this table, so ids need no stability across
/// builds. The batch slots k0..k31 / v0..v31 are appended programmatically
/// after this list.
constexpr const char* kWellKnownKeys[] = {
    // attrspace protocol fields (attr_protocol.hpp)
    "ctx", "attr", "value", "status", "error", "block", "pattern", "sub_id",
    "count", "bid",
    // reserved cross-cutting fields
    "_tc",
    // proxy / process-control / ping payloads
    "service", "payload", "cmd",
    // standard attribute names that double as message fields
    "pid", "executable_name", "app_args", "frontend_host", "frontend_port",
    "frontend_port2", "proxy_address", "stdio_address", "app_state",
    "rt_ready", "working_dir", "job_id", "num_procs",
    // condor / paradyn / mrnet message fields
    "job", "machine", "executable", "daemon", "module", "function", "metric",
    "host", "rank", "state", "final", "mod", "fn", "m", "v",
    // liveness / telemetry publish fields
    "seq", "micros", "role", "lease_ttl_ms", "beat",
};

constexpr std::size_t kBatchSlots = 32;  // k0..k31, v0..v31

struct KeyTable {
  std::unordered_map<std::string_view, std::uint16_t> by_key;
  std::vector<std::string> by_id;  // index = id; [0] unused

  KeyTable() {
    // Reserve the exact final size up front: the by_key string_views point
    // into by_id's strings, so the vector must never reallocate (SSO moves
    // the character buffers with the string objects).
    const std::size_t total = 1 + std::size(kWellKnownKeys) + 2 * kBatchSlots;
    by_id.reserve(total);
    by_key.reserve(total);
    by_id.emplace_back();  // id 0 = "no id"
    for (const char* key : kWellKnownKeys) add(key);
    for (std::size_t i = 0; i < kBatchSlots; ++i) {
      add("k" + std::to_string(i));
      add("v" + std::to_string(i));
    }
  }

  void add(std::string key) {
    by_id.push_back(std::move(key));
    by_key.emplace(by_id.back(), static_cast<std::uint16_t>(by_id.size() - 1));
  }
};

const KeyTable& key_table() {
  static const KeyTable instance;
  return instance;
}

/// Interned id of `key`, or 0 when the key rides as a named field.
std::uint16_t interned_id(std::string_view key) {
  const auto& table = key_table();
  auto it = table.by_key.find(key);
  return it == table.by_key.end() ? 0 : it->second;
}

/// Key of an interned id; empty for 0 and unregistered ids.
std::string_view interned_key(std::uint16_t id) {
  const auto& table = key_table();
  if (id == 0 || id >= table.by_id.size()) return {};
  return table.by_id[id];
}

/// Bounds-checked little-endian reader over a byte span.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool read_u16(std::uint16_t* v) {
    if (size_ - pos_ < 2) return false;
    *v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return true;
  }

  bool read_view(std::size_t n, std::string_view* out) {
    if (size_ - pos_ < n) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

  bool read_u8(std::uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }

  /// LEB128, capped at 10 bytes; rejects non-canonical over-length runs.
  bool read_varint(std::uint64_t* v) {
    *v = 0;
    int shift = 0;
    while (pos_ < size_ && shift < 64) {
      const std::uint8_t byte = data_[pos_++];
      *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
    return false;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::int64_t parse_int(std::string_view text, std::int64_t fallback) {
  std::int64_t value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return fallback;
  return value;
}

struct FrameHeader {
  std::uint16_t type = 0;
  std::uint64_t seq = 0;
  std::uint64_t nfields = 0;
};

/// Validates the length prefix against the actual frame size and the
/// payload header (marker | version | flags | u16 type | varint seq |
/// varint nfields); leaves `reader_out` at the first field.
Status open_frame(const std::uint8_t* data, std::size_t size,
                  ByteReader* reader_out, FrameHeader* header) {
  if (size < Message::kLenPrefixSize) {
    return make_error(ErrorCode::kInvalidArgument, "frame shorter than length prefix");
  }
  const std::uint32_t payload = Message::peek_length(data);
  if (payload > Message::kMaxPayload) {
    return make_error(ErrorCode::kInvalidArgument, "payload length exceeds kMaxPayload");
  }
  if (size != Message::kLenPrefixSize + payload) {
    return make_error(ErrorCode::kInvalidArgument, "frame size does not match prefix");
  }
  ByteReader reader(data + Message::kLenPrefixSize, payload);
  std::uint8_t marker = 0;
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  if (!reader.read_u8(&marker) || !reader.read_u8(&version) ||
      !reader.read_u8(&flags) || !reader.read_u16(&header->type) ||
      !reader.read_varint(&header->seq) || !reader.read_varint(&header->nfields)) {
    return make_error(ErrorCode::kInvalidArgument, "truncated message header");
  }
  if (marker != kMarker) {
    return make_error(ErrorCode::kInvalidArgument, "missing frame marker");
  }
  if (version != static_cast<std::uint8_t>(WireVersion::kV2)) {
    return make_error(ErrorCode::kInvalidArgument, "unsupported wire version");
  }
  if (flags != 0) {
    return make_error(ErrorCode::kInvalidArgument, "reserved wire flags set");
  }
  // Each encoded field is at least tag + body_len = 2 bytes, so a count
  // exceeding the remaining payload is corrupt (guards reserve() against
  // a hostile varint).
  if (header->nfields > reader.remaining()) {
    return make_error(ErrorCode::kInvalidArgument, "field count exceeds payload");
  }
  *reader_out = reader;
  return Status::ok();
}

/// Parses one field into key/value views. Interned keys view the static
/// key table, so they outlive any buffer.
Status parse_field(ByteReader& reader, std::string_view* key,
                   std::string_view* value) {
  std::uint8_t tag = 0;
  std::uint64_t body_len = 0;
  if (!reader.read_u8(&tag) || !reader.read_varint(&body_len)) {
    return make_error(ErrorCode::kInvalidArgument, "truncated field header");
  }
  std::string_view body;
  if (body_len > reader.remaining() ||
      !reader.read_view(static_cast<std::size_t>(body_len), &body)) {
    return make_error(ErrorCode::kInvalidArgument, "truncated field body");
  }
  ByteReader body_reader(reinterpret_cast<const std::uint8_t*>(body.data()),
                         body.size());
  if (tag == kTagInterned) {
    std::uint16_t id = 0;
    if (!body_reader.read_u16(&id)) {
      return make_error(ErrorCode::kInvalidArgument, "truncated interned field id");
    }
    *key = interned_key(id);
    if (key->empty()) {
      return make_error(ErrorCode::kInvalidArgument, "unregistered interned field id");
    }
  } else if (tag == kTagNamed) {
    std::uint64_t klen = 0;
    if (!body_reader.read_varint(&klen) || klen > body_reader.remaining() ||
        !body_reader.read_view(static_cast<std::size_t>(klen), key)) {
      return make_error(ErrorCode::kInvalidArgument, "truncated named field key");
    }
  } else {
    return make_error(ErrorCode::kInvalidArgument, "unknown field tag");
  }
  body_reader.read_view(body_reader.remaining(), value);
  return Status::ok();
}

/// Size of one field body (without tag and body_len prefix). Sets `id` to
/// the key's interned id, or 0 for a named field.
inline std::size_t field_body_size(const Message::Field& field, std::uint16_t* id) {
  *id = interned_id(field.key);
  if (*id != 0) return 2 + field.value.size();
  return varint_size(field.key.size()) + field.key.size() + field.value.size();
}

}  // namespace

Message& Message::set(std::string key, std::string value) {
  for (Field& field : fields_) {
    if (field.key == key) {
      field.value = std::move(value);
      return *this;
    }
  }
  fields_.push_back({std::move(key), std::move(value)});
  return *this;
}

Message& Message::set_int(std::string key, std::int64_t value) {
  return set(std::move(key), std::to_string(value));
}

Message& Message::add(std::string key, std::string value) {
  fields_.push_back({std::move(key), std::move(value)});
  return *this;
}

bool Message::has(std::string_view key) const {
  for (const Field& field : fields_) {
    if (field.key == key) return true;
  }
  return false;
}

std::string Message::get(std::string_view key, std::string_view fallback) const {
  return std::string(get_view(key, fallback));
}

std::string_view Message::get_view(std::string_view key,
                                   std::string_view fallback) const {
  for (const Field& field : fields_) {
    if (field.key == key) return field.value;
  }
  return fallback;
}

std::int64_t Message::get_int(std::string_view key, std::int64_t fallback) const {
  for (const Field& field : fields_) {
    if (field.key == key) return parse_int(field.value, fallback);
  }
  return fallback;
}

std::size_t Message::encoded_size() const noexcept {
  std::size_t size = kLenPrefixSize + 3 + 2 + varint_size(seq_) +
                     varint_size(fields_.size());
  for (const Field& field : fields_) {
    std::uint16_t id = 0;
    const std::size_t body = field_body_size(field, &id);
    size += 1 + varint_size(body) + body;
  }
  return size;
}

void Message::encode_into(std::vector<std::uint8_t>& out, WireVersion) const {
  const std::size_t total = encoded_size();
  out.resize(total);
  std::uint8_t* p = out.data();
  p = put_u32(p, static_cast<std::uint32_t>(total - kLenPrefixSize));
  *p++ = kMarker;
  *p++ = static_cast<std::uint8_t>(WireVersion::kV2);
  *p++ = 0;  // flags, reserved
  p = put_u16(p, static_cast<std::uint16_t>(type_));
  p = put_varint(p, seq_);
  p = put_varint(p, fields_.size());
  for (const Field& field : fields_) {
    std::uint16_t id = 0;
    const std::size_t body = field_body_size(field, &id);
    if (id != 0) {
      *p++ = kTagInterned;
      p = put_varint(p, body);
      p = put_u16(p, id);
    } else {
      *p++ = kTagNamed;
      p = put_varint(p, body);
      p = put_varint(p, field.key.size());
      p = put_bytes(p, field.key.data(), field.key.size());
    }
    p = put_bytes(p, field.value.data(), field.value.size());
  }
}

std::vector<std::uint8_t> Message::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

std::uint32_t Message::peek_length(const std::uint8_t* prefix) noexcept {
  return static_cast<std::uint32_t>(prefix[0]) |
         (static_cast<std::uint32_t>(prefix[1]) << 8) |
         (static_cast<std::uint32_t>(prefix[2]) << 16) |
         (static_cast<std::uint32_t>(prefix[3]) << 24);
}

Result<Message> Message::decode(const std::uint8_t* data, std::size_t size) {
  ByteReader reader(nullptr, 0);
  FrameHeader header;
  TDP_RETURN_IF_ERROR(open_frame(data, size, &reader, &header));
  Message msg(static_cast<MsgType>(header.type));
  msg.set_seq(header.seq);
  msg.fields_.reserve(static_cast<std::size_t>(header.nfields));
  for (std::uint64_t i = 0; i < header.nfields; ++i) {
    std::string_view key, value;
    TDP_RETURN_IF_ERROR(parse_field(reader, &key, &value));
    // set() keeps keys unique: duplicate wire keys merge, last wins.
    msg.set(std::string(key), std::string(value));
  }
  if (!reader.exhausted()) {
    return make_error(ErrorCode::kInvalidArgument, "trailing bytes after last field");
  }
  return msg;
}

bool operator==(const Message& a, const Message& b) {
  if (a.type_ != b.type_ || a.seq_ != b.seq_ ||
      a.fields_.size() != b.fields_.size()) {
    return false;
  }
  // Keys are unique per message, so order-insensitive containment one way
  // plus equal sizes is full equality.
  for (const Message::Field& field : a.fields_) {
    bool matched = false;
    for (const Message::Field& other : b.fields_) {
      if (other.key == field.key) {
        matched = other.value == field.value;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

Status MessageView::parse(const std::uint8_t* data, std::size_t size) {
  ByteReader reader(nullptr, 0);
  FrameHeader header;
  TDP_RETURN_IF_ERROR(open_frame(data, size, &reader, &header));
  fields_.clear();
  owned_ = Message();
  fields_.reserve(static_cast<std::size_t>(header.nfields));
  for (std::uint64_t i = 0; i < header.nfields; ++i) {
    FieldView field;
    TDP_RETURN_IF_ERROR(parse_field(reader, &field.key, &field.value));
    fields_.push_back(field);
  }
  if (!reader.exhausted()) {
    return make_error(ErrorCode::kInvalidArgument, "trailing bytes after last field");
  }
  type_ = static_cast<MsgType>(header.type);
  seq_ = header.seq;
  return Status::ok();
}

void MessageView::adopt(Message msg) {
  owned_ = std::move(msg);
  type_ = owned_.type();
  seq_ = owned_.seq();
  fields_.clear();
  fields_.reserve(owned_.fields().size());
  for (const Message::Field& field : owned_.fields()) {
    fields_.push_back({field.key, field.value});
  }
}

bool MessageView::has(std::string_view key) const {
  for (const FieldView& field : fields_) {
    if (field.key == key) return true;
  }
  return false;
}

std::string_view MessageView::get(std::string_view key,
                                  std::string_view fallback) const {
  // Reverse scan: wire duplicates resolve last-wins, matching decode().
  for (auto it = fields_.rbegin(); it != fields_.rend(); ++it) {
    if (it->key == key) return it->value;
  }
  return fallback;
}

std::int64_t MessageView::get_int(std::string_view key, std::int64_t fallback) const {
  for (auto it = fields_.rbegin(); it != fields_.rend(); ++it) {
    if (it->key == key) return parse_int(it->value, fallback);
  }
  return fallback;
}

Message MessageView::to_message() const {
  Message msg(type_);
  msg.set_seq(seq_);
  msg.reserve_fields(fields_.size());
  for (const FieldView& field : fields_) {
    msg.set(std::string(field.key), std::string(field.value));
  }
  return msg;
}

std::string Message::to_string() const {
  std::string out = msg_type_name(type_);
  out += "{seq=";
  out += std::to_string(seq_);
  for (const Field& field : fields_) {
    out += ", ";
    out += field.key;
    out += '=';
    out += field.value.size() > 64 ? field.value.substr(0, 61) + "..." : field.value;
  }
  out += '}';
  return out;
}

const char* msg_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kInvalid: return "Invalid";
    case MsgType::kAttrPut: return "AttrPut";
    case MsgType::kAttrPutReply: return "AttrPutReply";
    case MsgType::kAttrGet: return "AttrGet";
    case MsgType::kAttrGetReply: return "AttrGetReply";
    case MsgType::kAttrAsyncGet: return "AttrAsyncGet";
    case MsgType::kAttrSubscribe: return "AttrSubscribe";
    case MsgType::kAttrNotify: return "AttrNotify";
    case MsgType::kAttrExit: return "AttrExit";
    case MsgType::kAttrRemove: return "AttrRemove";
    case MsgType::kAttrList: return "AttrList";
    case MsgType::kAttrListReply: return "AttrListReply";
    case MsgType::kAttrInit: return "AttrInit";
    case MsgType::kAttrInitReply: return "AttrInitReply";
    case MsgType::kAttrPutBatch: return "AttrPutBatch";
    case MsgType::kProxyConnect: return "ProxyConnect";
    case MsgType::kProxyConnectReply: return "ProxyConnectReply";
    case MsgType::kProxyData: return "ProxyData";
    case MsgType::kCondorSubmit: return "CondorSubmit";
    case MsgType::kCondorSubmitReply: return "CondorSubmitReply";
    case MsgType::kCondorMatch: return "CondorMatch";
    case MsgType::kCondorClaim: return "CondorClaim";
    case MsgType::kCondorClaimReply: return "CondorClaimReply";
    case MsgType::kCondorActivate: return "CondorActivate";
    case MsgType::kCondorJobStatus: return "CondorJobStatus";
    case MsgType::kCondorRemoteSyscall: return "CondorRemoteSyscall";
    case MsgType::kCondorRemoteSyscallReply: return "CondorRemoteSyscallReply";
    case MsgType::kParadynReport: return "ParadynReport";
    case MsgType::kParadynCommand: return "ParadynCommand";
    case MsgType::kParadynCommandReply: return "ParadynCommandReply";
    case MsgType::kParadynHello: return "ParadynHello";
    case MsgType::kMrnetBroadcast: return "MrnetBroadcast";
    case MsgType::kMrnetReduce: return "MrnetReduce";
    case MsgType::kMrnetReduceReply: return "MrnetReduceReply";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kShutdown: return "Shutdown";
  }
  return "Unknown";
}

}  // namespace tdp::net
