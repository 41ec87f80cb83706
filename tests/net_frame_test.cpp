// Frame reassembly property tests: every protocol message type pushed
// through the length-prefixed framer, split at EVERY byte boundary and
// coalesced back-to-back, must decode byte-identically to the in-process
// codec path -- including the optional trace-context trailer. A seeded
// random-stream battery (frames of 0..200 KiB, sizes at the 64 KiB receive
// buffer +- 1, random cuts, a byte-at-a-time tail, an oversized prefix
// mid-stream, a stream cut mid-frame) pins that the reader returns exactly
// the frames sent, each in an arena of its own, or latches failed(), and
// never holds more than the frame in progress. Plus the malformed-frame
// battery: truncated, oversized, bad type byte, hostile counts; remote
// bytes must never abort the process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "causalec/codec.h"
#include "causalec/messages.h"
#include "common/random.h"
#include "erasure/arena_pool.h"
#include "erasure/buffer.h"
#include "net/client_proto.h"
#include "net/frame.h"

namespace causalec::net {
namespace {

using erasure::Buffer;
using erasure::Value;

VectorClock random_clock(Rng& rng, std::size_t n) {
  VectorClock vc(n);
  for (std::size_t i = 0; i < n; ++i) vc.set(i, rng.next_below(1000));
  return vc;
}

Tag random_tag(Rng& rng, std::size_t n) {
  return Tag(random_clock(rng, n), rng.next_u64());
}

TagVector random_tagvec(Rng& rng, std::size_t k, std::size_t n) {
  TagVector tv;
  for (std::size_t i = 0; i < k; ++i) tv.push_back(random_tag(rng, n));
  return tv;
}

Value random_value(Rng& rng, std::size_t bytes) {
  Value v(bytes);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

WireModel model() {
  ServerConfig config;
  return WireModel::make(config, 5, 3);
}

/// One instance of every protocol message type, with payloads big enough
/// that frames span multiple read chunks in the byte-at-a-time sweeps.
std::vector<sim::MessagePtr> sample_messages(bool traced) {
  Rng rng(traced ? 101 : 100);
  const WireModel wm = model();
  std::vector<sim::MessagePtr> out;
  out.push_back(
      std::make_unique<AppMessage>(2, random_value(rng, 96),
                                   random_tag(rng, 5), wm));
  out.push_back(std::make_unique<DelMessage>(1, random_tag(rng, 5), 3, true,
                                             wm));
  out.push_back(std::make_unique<ValInqMessage>(
      kLocalhost, 9001, 2, random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<ValRespMessage>(
      7, 42, 0, random_value(rng, 128), random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<ValRespEncodedMessage>(
      7, 43, 1, random_value(rng, 64), random_tagvec(rng, 3, 5),
      random_tagvec(rng, 3, 5), wm));
  out.push_back(std::make_unique<RecoverDigestMessage>(
      4, random_clock(rng, 5), wm));
  out.push_back(std::make_unique<RecoverDigestReplyMessage>(
      4, random_clock(rng, 5), wm));
  out.push_back(std::make_unique<RecoverPullMessage>(
      5, random_clock(rng, 5), wm));
  std::vector<RecoverPushMessage::HistoryItem> history;
  history.push_back({0, random_tag(rng, 5), random_value(rng, 32)});
  history.push_back({2, random_tag(rng, 5), random_value(rng, 48)});
  std::vector<RecoverPushMessage::InqueueItem> inqueue;
  inqueue.push_back({3, 1, random_tag(rng, 5), random_value(rng, 24)});
  std::vector<RecoverPushMessage::DelItem> dels;
  dels.push_back({1, 4, random_tag(rng, 5)});
  out.push_back(std::make_unique<RecoverPushMessage>(
      5, random_clock(rng, 5), std::move(history), std::move(inqueue),
      std::move(dels), wm));
  if (traced) {
    std::uint64_t next_id = 0xABCD;
    for (auto& m : out) {
      m->trace.trace_id = ++next_id;
      m->trace.span_id = next_id * 3;
    }
  }
  return out;
}

/// Feeds `frame` split into [0, split) and [split, size); returns every
/// completed payload.
std::vector<Buffer> reassemble_split(const Buffer& frame, std::size_t split) {
  FrameReader reader;
  std::vector<Buffer> payloads;
  const auto keep = [&](Buffer p) { payloads.push_back(std::move(p)); };
  reader.feed(frame.span().first(split), keep);
  reader.feed(frame.span().subspan(split), keep);
  EXPECT_FALSE(reader.failed()) << reader.error();
  EXPECT_EQ(reader.buffered_bytes(), 0u);
  return payloads;
}

bool payload_equals(const Buffer& payload,
                    const std::vector<std::uint8_t>& expected) {
  return payload.size() == expected.size() &&
         (payload.empty() ||
          std::memcmp(payload.data(), expected.data(), payload.size()) == 0);
}

// -- The all-boundary split sweep -------------------------------------------

void run_split_sweep(bool traced) {
  for (const auto& message : sample_messages(traced)) {
    const std::vector<std::uint8_t> expected = serialize_message(*message);
    const Buffer frame = encode_frame(expected);
    for (std::size_t split = 0; split <= frame.size(); ++split) {
      const std::vector<Buffer> payloads = reassemble_split(frame, split);
      ASSERT_EQ(payloads.size(), 1u)
          << message->type_name() << " split at " << split;
      ASSERT_TRUE(payload_equals(payloads[0], expected))
          << message->type_name() << " split at " << split;
      // Byte-identical to the in-process codec: decoding the reassembled
      // payload and re-serializing reproduces the original bytes exactly.
      std::string error;
      const sim::MessagePtr decoded =
          try_deserialize_message(payloads[0], &error);
      ASSERT_NE(decoded, nullptr)
          << message->type_name() << " split at " << split << ": " << error;
      EXPECT_EQ(serialize_message(*decoded), expected)
          << message->type_name() << " split at " << split;
      EXPECT_STREQ(decoded->type_name(), message->type_name());
      EXPECT_EQ(decoded->trace.trace_id, message->trace.trace_id);
      EXPECT_EQ(decoded->trace.span_id, message->trace.span_id);
    }
  }
}

TEST(NetFrameSweep, EveryMessageTypeAtEveryByteBoundary) {
  run_split_sweep(/*traced=*/false);
}

TEST(NetFrameSweep, TraceContextTrailerSurvivesEverySplit) {
  run_split_sweep(/*traced=*/true);
}

TEST(NetFrameSweep, ByteAtATimeReassembly) {
  for (const auto& message : sample_messages(/*traced=*/true)) {
    const std::vector<std::uint8_t> expected = serialize_message(*message);
    const Buffer frame = encode_frame(expected);
    FrameReader reader;
    std::vector<Buffer> payloads;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      reader.feed(frame.span().subspan(i, 1),
                  [&](Buffer p) { payloads.push_back(std::move(p)); });
    }
    ASSERT_EQ(payloads.size(), 1u) << message->type_name();
    EXPECT_TRUE(payload_equals(payloads[0], expected))
        << message->type_name();
  }
}

// -- Coalesced back-to-back frames ------------------------------------------

TEST(NetFrameCoalesced, AllTypesInOneChunkDecodeInOrder) {
  const auto messages = sample_messages(/*traced=*/false);
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> stream;
  for (const auto& m : messages) {
    expected.push_back(serialize_message(*m));
    const Buffer frame = encode_frame(expected.back());
    stream.insert(stream.end(), frame.data(), frame.data() + frame.size());
  }
  FrameReader reader;
  std::vector<Buffer> payloads;
  reader.feed(stream, [&](Buffer p) { payloads.push_back(std::move(p)); });
  ASSERT_EQ(payloads.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(payload_equals(payloads[i], expected[i])) << "frame " << i;
    const sim::MessagePtr decoded = try_deserialize_message(payloads[i]);
    ASSERT_NE(decoded, nullptr);
    EXPECT_STREQ(decoded->type_name(), messages[i]->type_name());
  }
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(NetFrameCoalesced, CoalescedStreamSplitAtEveryBoundary) {
  // Three frames concatenated, the stream cut at every byte: the reader
  // must always deliver exactly the three payloads regardless of where
  // the chunk boundary lands (mid-header, mid-body, between frames).
  Rng rng(7);
  const WireModel wm = model();
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::uint8_t> stream;
  const AppMessage app(0, random_value(rng, 40), random_tag(rng, 5), wm);
  const DelMessage del(1, random_tag(rng, 5), 2, false, wm);
  const ValInqMessage inq(9, 77, 1, random_tagvec(rng, 3, 5), wm);
  for (const sim::Message* m :
       {static_cast<const sim::Message*>(&app),
        static_cast<const sim::Message*>(&del),
        static_cast<const sim::Message*>(&inq)}) {
    expected.push_back(serialize_message(*m));
    const Buffer frame = encode_frame(expected.back());
    stream.insert(stream.end(), frame.data(), frame.data() + frame.size());
  }
  const Buffer whole = Buffer::adopt(std::move(stream));
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::vector<Buffer> payloads = reassemble_split(whole, split);
    ASSERT_EQ(payloads.size(), 3u) << "split at " << split;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(payload_equals(payloads[i], expected[i]))
          << "split at " << split << " frame " << i;
    }
  }
}

// -- Seeded random streams ---------------------------------------------------

/// Length-prefixed frames back to back, with each frame's extent.
struct Stream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::size_t> starts;  // offset of each frame's length prefix
  std::vector<std::size_t> ends;    // one past each frame's last byte
};

void append_frame(Stream& s, std::vector<std::uint8_t> payload) {
  s.starts.push_back(s.bytes.size());
  const Buffer frame = encode_frame(payload);
  s.bytes.insert(s.bytes.end(), frame.data(), frame.data() + frame.size());
  s.ends.push_back(s.bytes.size());
  s.payloads.push_back(std::move(payload));
}

/// Frames of random size in [0, 200 KiB] in random order, mixed with the
/// sizes at one receive buffer: payloads and whole frames of 64 KiB +- 1.
Stream random_stream(Rng& rng) {
  std::vector<std::size_t> sizes = {0, 1, 3, 4, 5};
  for (const std::size_t edge :
       {kRecvBufferBytes, kRecvBufferBytes - kFrameHeaderBytes}) {
    sizes.insert(sizes.end(), {edge - 1, edge, edge + 1});
  }
  for (int i = 0; i < 20; ++i) sizes.push_back(rng.next_below(200 * 1024 + 1));
  for (std::size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[rng.next_below(i + 1)]);
  }
  Stream s;
  for (const std::size_t size : sizes) {
    std::vector<std::uint8_t> payload(size);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    append_frame(s, std::move(payload));
  }
  return s;
}

/// Feeds `stream.bytes[0, cut)` in random pieces: mostly up to one receive
/// buffer, often a few bytes (so length prefixes split), and the last
/// `tail` bytes one at a time. Every payload is checked as it arrives and
/// then dropped; after every piece the reader must hold exactly the bytes
/// of the frame in progress -- never more than one pending frame, and
/// never a whole receive buffer. Returns how many frames came out.
std::size_t feed_in_pieces(FrameReader& reader, const Stream& stream,
                           std::size_t cut, std::size_t tail, Rng& rng) {
  std::size_t got = 0;
  std::size_t pos = 0;
  while (pos < cut) {
    std::size_t piece = rng.next_below(4) == 0
                            ? 1 + rng.next_below(8)
                            : 1 + rng.next_below(kRecvBufferBytes);
    if (cut - pos <= tail) piece = 1;
    piece = std::min(piece, cut - pos);
    reader.feed({stream.bytes.data() + pos, piece}, [&](Buffer p) {
      ASSERT_LT(got, stream.payloads.size());
      EXPECT_TRUE(payload_equals(p, stream.payloads[got])) << "frame " << got;
      EXPECT_LE(p.use_count(), 1) << "frame " << got << " shares an arena";
      ++got;
    });
    pos += piece;
    if (reader.failed()) return got;
    std::size_t complete = 0;
    while (complete < stream.ends.size() && stream.ends[complete] <= pos) {
      ++complete;
    }
    EXPECT_EQ(got, complete) << "after " << pos << " bytes";
    const std::size_t pending =
        complete < stream.starts.size() ? pos - stream.starts[complete] : 0;
    EXPECT_EQ(reader.buffered_bytes(), pending) << "after " << pos << " bytes";
  }
  return got;
}

TEST(NetFrameStream, SeededRandomStreamsReturnExactlyTheFramesSent) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Stream stream = random_stream(rng);
    // Odd seeds recycle arenas through a pool, so a byte the reader fails
    // to write shows up as a stale byte of an earlier frame.
    erasure::BufferPool pool;
    std::optional<erasure::BufferPool::ScopedInstall> installed;
    if (seed % 2 == 1) installed.emplace(pool);
    FrameReader reader;
    EXPECT_EQ(feed_in_pieces(reader, stream, stream.bytes.size(),
                             /*tail=*/1 + rng.next_below(300), rng),
              stream.payloads.size());
    EXPECT_FALSE(reader.failed()) << reader.error();
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(NetFrameStream, OversizedLengthPrefixMidStreamLatchesTheFailure) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Stream stream = random_stream(rng);
    const std::size_t valid = stream.payloads.size();
    const std::uint64_t len =
        seed % 2 == 0 ? kMaxFrameBytes + 1 : std::uint64_t{0xffffffff};
    for (int i = 0; i < 4; ++i) {
      stream.bytes.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    // Whatever follows -- even well-formed frames -- is never delivered.
    append_frame(stream, {1, 2, 3});
    FrameReader reader;
    EXPECT_EQ(feed_in_pieces(reader, stream, stream.bytes.size(),
                             /*tail=*/rng.next_below(16), rng),
              valid);
    EXPECT_TRUE(reader.failed());
    int after = 0;
    reader.feed(stream.bytes, [&](Buffer) { ++after; });
    EXPECT_EQ(after, 0);
  }
}

TEST(NetFrameStream, StreamTruncatedMidFrameHoldsOnlyThatFrame) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const Stream stream = random_stream(rng);
    // Cut strictly inside one frame, possibly inside its length prefix;
    // the checks in feed_in_pieces pin what is held after every piece.
    const std::size_t frame = rng.next_below(stream.payloads.size());
    const std::size_t cut =
        stream.starts[frame] + 1 +
        rng.next_below(stream.ends[frame] - stream.starts[frame] - 1);
    FrameReader reader;
    EXPECT_EQ(feed_in_pieces(reader, stream, cut, /*tail=*/64, rng), frame);
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(reader.buffered_bytes(), cut - stream.starts[frame]);
  }
}

// -- Malformed input --------------------------------------------------------

TEST(NetFrameMalformed, OversizedLengthPrefixFailsTheReader) {
  std::vector<std::uint8_t> header(4);
  const std::uint64_t huge = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(huge >> (8 * i));
  }
  FrameReader reader;
  int frames = 0;
  reader.feed(header, [&](Buffer) { ++frames; });
  EXPECT_EQ(frames, 0);
  EXPECT_TRUE(reader.failed());
  EXPECT_FALSE(reader.error().empty());
}

TEST(NetFrameMalformed, TruncatedBodyStaysPendingWithoutFailing) {
  Rng rng(9);
  const DelMessage del(0, random_tag(rng, 5), 1, false, model());
  const Buffer frame = encode_frame(serialize_message(del));
  FrameReader reader;
  int frames = 0;
  const auto count = [&](Buffer) { ++frames; };
  reader.feed(frame.span().first(frame.size() - 3), count);
  EXPECT_EQ(frames, 0);
  EXPECT_FALSE(reader.failed());
  EXPECT_GT(reader.buffered_bytes(), 0u);
  // The missing tail arrives: the frame completes.
  reader.feed(frame.span().last(3), count);
  EXPECT_EQ(frames, 1);
}

TEST(NetFrameMalformed, BadTypeByteNeverAborts) {
  Rng rng(10);
  auto bytes = serialize_message(
      AppMessage(0, random_value(rng, 16), random_tag(rng, 3), model()));
  bytes[0] = 57;  // not a protocol type byte
  std::string error;
  EXPECT_EQ(try_deserialize_message(Buffer::adopt(std::move(bytes)), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(NetFrameMalformed, TruncatedMessagePayloadNeverAborts) {
  Rng rng(11);
  for (const auto& message : sample_messages(/*traced=*/false)) {
    auto bytes = serialize_message(*message);
    // Every strict prefix must decode to null, not crash. (Prefixes that
    // happen to parse as a shorter valid encoding do not exist in this
    // format: every field is length-checked.)
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      std::string error;
      const auto out = try_deserialize_message(
          Buffer::adopt(std::vector<std::uint8_t>(
              bytes.begin(), bytes.begin() + static_cast<long>(len))),
          &error);
      EXPECT_EQ(out, nullptr)
          << message->type_name() << " prefix of " << len;
    }
  }
}

TEST(NetFrameMalformed, TrailingGarbageNeverAborts) {
  Rng rng(12);
  auto bytes = serialize_message(
      DelMessage(0, random_tag(rng, 4), 1, false, model()));
  bytes.push_back(0x5A);  // not a full 16-byte trace trailer
  std::string error;
  EXPECT_EQ(try_deserialize_message(Buffer::adopt(std::move(bytes)), &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// -- Client/control protocol ------------------------------------------------

TEST(NetClientProto, RoundTrips) {
  Rng rng(13);
  {
    Hello m{PeerRole::kServer, 3};
    const auto r = decode_hello(Buffer::adopt(encode_hello(m)));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->role, PeerRole::kServer);
    EXPECT_EQ(r->node, 3u);
  }
  {
    WriteReq m;
    m.opid = 42;
    m.client = 7;
    m.object = 2;
    m.value = random_value(rng, 96);
    const auto r = decode_write_req(Buffer::adopt(encode_write_req(m)));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->opid, 42u);
    EXPECT_EQ(r->client, 7u);
    EXPECT_EQ(r->object, 2u);
    EXPECT_EQ(r->value, m.value);
  }
  {
    ReadResp m;
    m.opid = 43;
    m.tag = random_tag(rng, 5);
    m.vc = random_clock(rng, 5);
    m.value = random_value(rng, 64);
    const auto r = decode_read_resp(Buffer::adopt(encode_read_resp(m)));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->opid, 43u);
    EXPECT_EQ(r->tag, m.tag);
    EXPECT_TRUE(r->vc == m.vc);
    EXPECT_EQ(r->value, m.value);
  }
  {
    StatsResp m;
    m.node = 4;
    m.vc = random_clock(rng, 5);
    m.history_entries = 10;
    m.inqueue_entries = 2;
    m.readl_entries = 1;
    m.writes = 100;
    m.reads = 200;
    m.error_events = 0;
    m.recoveries = 3;
    m.shard_ops = {11, 22, 33};
    const auto r = decode_stats_resp(Buffer::adopt(encode_stats_resp(m)));
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->vc == m.vc);
    EXPECT_EQ(r->history_entries, 10u);
    EXPECT_EQ(r->shard_ops, m.shard_ops);
  }
}

TEST(NetClientProto, MalformedFramesDecodeToNullopt) {
  Rng rng(14);
  // Wrong type byte.
  auto hello = encode_hello(Hello{PeerRole::kClient, 0});
  hello[0] = static_cast<std::uint8_t>(ClientMsgType::kPing);
  EXPECT_FALSE(decode_hello(Buffer::adopt(std::move(hello))).has_value());
  // Truncated at every prefix.
  WriteResp resp;
  resp.opid = 9;
  resp.tag = random_tag(rng, 5);
  resp.vc = random_clock(rng, 5);
  const auto bytes = encode_write_resp(resp);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_write_resp(
                     Buffer::adopt(std::vector<std::uint8_t>(
                         bytes.begin(),
                         bytes.begin() + static_cast<long>(len))))
                     .has_value())
        << "prefix " << len;
  }
  // Hostile shard count in stats: claims more entries than bytes present.
  StatsResp stats;
  stats.vc = random_clock(rng, 3);
  stats.shard_ops = {1};
  auto sbytes = encode_stats_resp(stats);
  sbytes[sbytes.size() - 8 - 4] = 0xFF;  // shards count low byte
  EXPECT_FALSE(
      decode_stats_resp(Buffer::adopt(std::move(sbytes))).has_value());
}

}  // namespace
}  // namespace causalec::net
