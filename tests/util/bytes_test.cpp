#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace dac::util {
namespace {

TEST(Bytes, RoundTripScalars) {
  ByteWriter w;
  w.put<std::uint8_t>(0xAB);
  w.put<std::int32_t>(-12345);
  w.put<std::uint64_t>(0xDEADBEEFCAFEBABEull);
  w.put<double>(3.14159);
  w.put_bool(true);
  w.put_bool(false);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.get<std::int32_t>(), -12345);
  EXPECT_EQ(r.get<std::uint64_t>(), 0xDEADBEEFCAFEBABEull);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, RoundTripStrings) {
  ByteWriter w;
  w.put_string("");
  w.put_string("hello");
  w.put_string(std::string(10000, 'x'));

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), std::string(10000, 'x'));
}

TEST(Bytes, RoundTripNestedBytes) {
  ByteWriter inner;
  inner.put<std::int32_t>(42);
  ByteWriter w;
  w.put_bytes(inner.bytes());
  w.put_bytes({});

  ByteReader r(w.bytes());
  auto b = r.get_bytes();
  ByteReader ri(b);
  EXPECT_EQ(ri.get<std::int32_t>(), 42);
  EXPECT_TRUE(r.get_bytes().empty());
}

TEST(Bytes, RoundTripVectors) {
  ByteWriter w;
  w.put_vector<std::int64_t>({1, -2, 3});
  w.put_vector<double>({});
  w.put_string_vector({"a", "", "ccc"});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<std::int64_t>(), (std::vector<std::int64_t>{1, -2, 3}));
  EXPECT_TRUE(r.get_vector<double>().empty());
  EXPECT_EQ(r.get_string_vector(),
            (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(Bytes, RoundTripEnum) {
  enum class Color : std::uint16_t { kRed = 7, kBlue = 9 };
  ByteWriter w;
  w.put_enum(Color::kBlue);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_enum<Color>(), Color::kBlue);
}

TEST(Bytes, TruncatedScalarThrows) {
  ByteWriter w;
  w.put<std::uint8_t>(1);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 1);
  EXPECT_THROW(r.get<std::uint32_t>(), DecodeError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.put<std::uint32_t>(100);  // claims 100 bytes follow; none do
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), DecodeError);
}

TEST(Bytes, RemainingTracksPosition) {
  ByteWriter w;
  w.put<std::uint32_t>(5);
  w.put<std::uint32_t>(6);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.get<std::uint32_t>();
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, ToBytesCopies) {
  const char data[] = {1, 2, 3};
  auto b = to_bytes(data, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(std::to_integer<int>(b[2]), 3);
  EXPECT_TRUE(to_bytes(nullptr, 0).empty());
}

TEST(Bytes, PutRawIsUnprefixed) {
  ByteWriter w;
  const std::uint32_t x = 0x01020304;
  w.put_raw(&x, sizeof(x));
  EXPECT_EQ(w.size(), sizeof(x));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint32_t>(), x);
}

TEST(Bytes, PutRawOfNothingAcceptsNull) {
  ByteWriter w;
  w.put_raw(nullptr, 0);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace dac::util
