#ifndef WMP_UTIL_IO_H_
#define WMP_UTIL_IO_H_

/// \file io.h
/// Binary serialization primitives.
///
/// Every trained model in `src/ml` serializes itself through `BinaryWriter`;
/// model size (Fig. 8 of the paper) is the byte count of that stream.
/// The format is little-endian, length-prefixed, with a per-stream magic and
/// version header written by the model wrappers.

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace wmp {

/// \brief Appends primitive values to an in-memory byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { Append(&v, 1); }
  void WriteU16(uint16_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteDouble(double v) { Append(&v, sizeof(v)); }
  /// Length-prefixed (u32) string.
  void WriteString(const std::string& s);
  /// Length-prefixed (u64) vector of doubles.
  void WriteDoubleVec(const std::vector<double>& v);
  /// Length-prefixed (u64) vector of 32-bit signed ints.
  void WriteIntVec(const std::vector<int>& v);

  const std::string& buffer() const { return buf_; }
  /// Moves the accumulated bytes out, leaving the writer empty.
  std::string TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

  /// Writes the accumulated buffer to `path`, replacing any existing file.
  Status WriteToFile(const std::string& path) const;

 private:
  void Append(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// \brief Reads primitives back from a byte buffer produced by BinaryWriter.
///
/// All reads are bounds-checked and return `Status::OutOfRange` on truncated
/// input rather than reading past the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::string buf) : buf_(std::move(buf)) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  /// Reads a u32 without consuming it (for dispatch on magic tags).
  Result<uint32_t> PeekU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<std::vector<double>> ReadDoubleVec();
  Result<std::vector<int>> ReadIntVec();

  /// Bytes not yet consumed.
  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

  /// Loads a whole file into a reader.
  static Result<BinaryReader> FromFile(const std::string& path);

 private:
  Status Take(void* out, size_t n);
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace wmp

#endif  // WMP_UTIL_IO_H_
