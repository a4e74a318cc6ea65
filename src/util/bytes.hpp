// Byte-buffer serialization used for every message payload in the virtual
// cluster. Values are encoded little-endian, length-prefixed where variable
// sized. The format is symmetric: whatever ByteWriter wrote, ByteReader reads
// back in the same order. Deserialization failures throw DecodeError rather
// than returning garbage, because a malformed payload is always a programming
// error in this in-process system.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace dac::util {

using Bytes = std::vector<std::byte>;

class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  ByteWriter() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  void put(T value) {
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &value, sizeof(T));
  }

  template <typename E>
    requires std::is_enum_v<E>
  void put_enum(E value) {
    put(static_cast<std::underlying_type_t<E>>(value));
  }

  void put_bool(bool value) { put<std::uint8_t>(value ? 1 : 0); }

  void put_string(std::string_view s) {
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void put_bytes(const Bytes& b) {
    put<std::uint32_t>(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  // Raw append without a length prefix; reader must know the size. An
  // empty append may pass a null `data` (memcpy forbids that even for n=0).
  void put_raw(const void* data, std::size_t n) {
    if (n == 0) return;
    const auto old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    put_raw(v.data(), v.size() * sizeof(T));
  }

  void put_string_vector(const std::vector<std::string>& v) {
    put<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) put_string(s);
  }

  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T> && std::is_arithmetic_v<T>
  T get() {
    need(sizeof(T));
    T value;
    std::memcpy(&value, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename E>
    requires std::is_enum_v<E>
  E get_enum() {
    return static_cast<E>(get<std::underlying_type_t<E>>());
  }

  bool get_bool() { return get<std::uint8_t>() != 0; }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes get_bytes() {
    const auto n = get<std::uint32_t>();
    need(n);
    Bytes b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  template <typename T>
    requires std::is_arithmetic_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint32_t>();
    need(static_cast<std::size_t>(n) * sizeof(T));
    std::vector<T> v(n);
    if (n > 0) {
      std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return v;
  }

  std::vector<std::string> get_string_vector() {
    const auto n = get<std::uint32_t>();
    std::vector<std::string> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(get_string());
    return v;
  }

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (buf_.size() - pos_ < n) {
      throw DecodeError("ByteReader: truncated payload (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(buf_.size() - pos_) + ")");
    }
  }

  const Bytes& buf_;
  std::size_t pos_ = 0;
};

// Convenience: copy a trivially-copyable range into a Bytes buffer.
Bytes to_bytes(const void* data, std::size_t n);

}  // namespace dac::util
