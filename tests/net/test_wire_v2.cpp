// Wire format tests: compact-layout round trips over the whole type space,
// field-id interning, rejection of unknown tags and unregistered ids,
// strict header validation, and fuzz coverage mirroring
// test_fuzz_decode.cpp (truncated frames, corrupted field-id tables,
// random mutations).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/message.hpp"
#include "util/rng.hpp"

namespace tdp::net {
namespace {

Message sample_message() {
  Message msg(MsgType::kAttrPut);
  msg.set_seq(0x1234567890ABCDEFULL);
  msg.set("attr", "pid");          // interned protocol field
  msg.set("value", "1234567890");  // interned protocol field
  msg.set("ctx", "job-1");         // interned protocol field
  msg.set("application-key", "survives as a named field");
  return msg;
}

void put_varint(std::vector<std::uint8_t>* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

// Hand-assembles a v2 frame from raw parts (length prefix included), so
// tests can express frames no conforming encoder would produce.
std::vector<std::uint8_t> frame_v2(MsgType type, std::uint64_t seq,
                                   const std::vector<std::vector<std::uint8_t>>& fields) {
  std::vector<std::uint8_t> payload;
  payload.push_back(0xFD);  // marker
  payload.push_back(2);     // version
  payload.push_back(0);     // flags
  payload.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(type) & 0xFF));
  payload.push_back(static_cast<std::uint8_t>(static_cast<std::uint16_t>(type) >> 8));
  put_varint(&payload, seq);
  put_varint(&payload, fields.size());
  for (const auto& field : fields) {
    payload.insert(payload.end(), field.begin(), field.end());
  }
  std::vector<std::uint8_t> frame;
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
  }
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> named_field(std::string_view key, std::string_view value) {
  std::vector<std::uint8_t> body;
  put_varint(&body, key.size());
  body.insert(body.end(), key.begin(), key.end());
  body.insert(body.end(), value.begin(), value.end());
  std::vector<std::uint8_t> field{0x02};
  put_varint(&field, body.size());
  field.insert(field.end(), body.begin(), body.end());
  return field;
}

std::vector<std::uint8_t> interned_field(std::uint16_t id, std::string_view value) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(id & 0xFF));
  body.push_back(static_cast<std::uint8_t>(id >> 8));
  body.insert(body.end(), value.begin(), value.end());
  std::vector<std::uint8_t> field{0x01};
  put_varint(&field, body.size());
  field.insert(field.end(), body.begin(), body.end());
  return field;
}

TEST(WireV2, RoundTripsThroughDecodeAndView) {
  // 253 and 509 have 0xFD as their low byte, the frame marker's value:
  // nothing in the type space is reserved.
  for (const auto type : {MsgType::kAttrPut, static_cast<MsgType>(253),
                          static_cast<MsgType>(509)}) {
    Message msg = sample_message();
    msg.set_type(type);
    const auto bytes = msg.encode();
    EXPECT_EQ(bytes.size(), msg.encoded_size());

    auto decoded = Message::decode(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), msg);

    MessageView view;
    ASSERT_TRUE(view.parse(bytes.data(), bytes.size()).is_ok());
    EXPECT_EQ(view.type(), type);
    EXPECT_EQ(view.seq(), msg.seq());
    EXPECT_EQ(view.get("attr"), "pid");
    EXPECT_EQ(view.get("application-key"), "survives as a named field");
  }
}

TEST(WireV2, EncodeIntoReusesBufferAndMatchesEncode) {
  const Message msg = sample_message();
  std::vector<std::uint8_t> warm;
  msg.encode_into(warm);
  EXPECT_EQ(warm, msg.encode());
  // Second fill must not grow the buffer: steady-state senders stay
  // allocation-free.
  const std::uint8_t* data = warm.data();
  const std::size_t cap = warm.capacity();
  msg.encode_into(warm);
  EXPECT_EQ(warm.data(), data);
  EXPECT_EQ(warm.capacity(), cap);
}

TEST(WireV2, InterningShrinksWellKnownFields) {
  // Same key lengths, same values: a well-known key travels as a 2-byte id
  // where any other key spends a length byte plus the key itself, so each
  // interned key saves its length minus one byte.
  Message interned(MsgType::kAttrPut);
  interned.set("attr", "x").set("value", "y").set("ctx", "z").set(kTraceField, "t");
  Message named(MsgType::kAttrPut);
  named.set("attx", "x").set("valux", "y").set("ctz", "z").set("_tz", "t");
  EXPECT_EQ(interned.encoded_size() + (4 - 1) + (5 - 1) + (3 - 1) + (3 - 1),
            named.encoded_size());

  const auto bytes = interned.encode();
  auto decoded = Message::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), interned);
}

TEST(WireV2, UnknownKeysRideAsNamedFields) {
  Message msg(MsgType::kAttrPut);
  msg.set("totally-custom-key", "v");
  const auto bytes = msg.encode();
  auto decoded = Message::decode(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->get("totally-custom-key"), "v");
}

TEST(WireV2, SkipsUnknownTagsAndUnregisteredIds) {
  // Nothing is skipped: an unknown tag or an id outside the key table
  // makes the whole frame malformed, for both decoders.
  std::vector<std::uint8_t> unknown_tag{0x5E};
  put_varint(&unknown_tag, 3);
  unknown_tag.insert(unknown_tag.end(), {1, 2, 3});

  const auto valid = frame_v2(MsgType::kAttrPut, 9,
                              {named_field("keep", "me"), named_field("also", "kept")});
  MessageView view;
  ASSERT_TRUE(Message::decode(valid.data(), valid.size()).is_ok());
  ASSERT_TRUE(view.parse(valid.data(), valid.size()).is_ok());

  for (const auto& bad : {unknown_tag, interned_field(0, "no id"),
                          interned_field(0xFFFF, "unregistered")}) {
    const auto frame = frame_v2(MsgType::kAttrPut, 9,
                                {named_field("keep", "me"), bad, named_field("also", "kept")});
    auto decoded = Message::decode(frame.data(), frame.size());
    ASSERT_FALSE(decoded.is_ok());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidArgument);
    const Status parsed = view.parse(frame.data(), frame.size());
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_EQ(parsed.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(WireV2, RejectsBadHeaders) {
  const Message msg = sample_message();
  auto bytes = msg.encode();

  auto bad_marker = bytes;
  bad_marker[Message::kLenPrefixSize] = 0x64;  // a u16 type where the marker goes
  EXPECT_FALSE(Message::decode(bad_marker.data(), bad_marker.size()).is_ok());

  auto bad_version = bytes;
  bad_version[Message::kLenPrefixSize + 1] = 3;  // future wire version
  EXPECT_FALSE(Message::decode(bad_version.data(), bad_version.size()).is_ok());

  auto bad_flags = bytes;
  bad_flags[Message::kLenPrefixSize + 2] = 0x80;  // undefined flag bit
  EXPECT_FALSE(Message::decode(bad_flags.data(), bad_flags.size()).is_ok());

  // nfields larger than the remaining payload could ever hold.
  const auto huge = frame_v2(MsgType::kPing, 1, {});
  auto inflated = huge;
  inflated[inflated.size() - 1] = 0x7F;  // nfields = 127, zero field bytes
  EXPECT_FALSE(Message::decode(inflated.data(), inflated.size()).is_ok());
}

class WireV2Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireV2Fuzz, TruncationsNeverCrashOrPass) {
  const auto bytes = sample_message().encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(Message::decode(bytes.data(), cut).is_ok());
  }
}

TEST_P(WireV2Fuzz, SingleByteMutationsNeverCrash) {
  Rng rng(GetParam());
  const auto bytes = sample_message().encode();
  for (int round = 0; round < 4000; ++round) {
    auto mutated = bytes;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto decoded = Message::decode(mutated.data(), mutated.size());
    if (decoded.is_ok()) {
      // Accepted input must reach a fixpoint.
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

TEST_P(WireV2Fuzz, CorruptedFieldTablesNeverCrash) {
  Rng rng(GetParam());
  // Mutate only the field region (tags, lengths, interned ids) so the
  // header stays valid and the field parser does the rejecting.
  Message msg(MsgType::kAttrPutBatch);
  for (int i = 0; i < 8; ++i) {
    msg.set("k" + std::to_string(i), std::string(1 + rng.next_below(48), 'x'));
  }
  const auto bytes = msg.encode();
  const std::size_t fields_start = Message::kLenPrefixSize + 5 + 1 + 1;
  for (int round = 0; round < 4000; ++round) {
    auto mutated = bytes;
    const std::size_t span = mutated.size() - fields_start;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[fields_start + rng.next_below(span)] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    auto decoded = Message::decode(mutated.data(), mutated.size());
    if (decoded.is_ok()) {
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

TEST_P(WireV2Fuzz, MarkedRandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    const std::size_t size = rng.next_below(256);
    std::vector<std::uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (!payload.empty()) payload[0] = 0xFD;  // get past the marker check
    std::vector<std::uint8_t> frame;
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
    }
    frame.insert(frame.end(), payload.begin(), payload.end());
    auto decoded = Message::decode(frame.data(), frame.size());
    if (decoded.is_ok()) {
      auto reencoded = decoded->encode();
      auto redecoded = Message::decode(reencoded.data(), reencoded.size());
      ASSERT_TRUE(redecoded.is_ok());
      EXPECT_EQ(redecoded.value(), decoded.value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireV2Fuzz, ::testing::Values(1u, 42u, 20030211u));

}  // namespace
}  // namespace tdp::net
