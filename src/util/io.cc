#include "util/io.h"

#include <fstream>

namespace wmp {

void BinaryWriter::WriteString(const std::string& s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  Append(s.data(), s.size());
}

void BinaryWriter::WriteDoubleVec(const std::vector<double>& v) {
  WriteU64(v.size());
  if (!v.empty()) Append(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::WriteIntVec(const std::vector<int>& v) {
  WriteU64(v.size());
  if (!v.empty()) Append(v.data(), v.size() * sizeof(int));
}

Status BinaryWriter::WriteToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status BinaryReader::Take(void* out, size_t n) {
  if (pos_ + n > buf_.size()) {
    return Status::OutOfRange("binary stream truncated");
  }
  std::memcpy(out, buf_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Result<uint8_t> BinaryReader::ReadU8() {
  uint8_t v;
  WMP_RETURN_IF_ERROR(Take(&v, 1));
  return v;
}

Result<uint16_t> BinaryReader::ReadU16() {
  uint16_t v;
  WMP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() {
  uint32_t v;
  WMP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<uint32_t> BinaryReader::PeekU32() {
  const size_t saved = pos_;
  Result<uint32_t> r = ReadU32();
  pos_ = saved;
  return r;
}

Result<uint64_t> BinaryReader::ReadU64() {
  uint64_t v;
  WMP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  int64_t v;
  WMP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<double> BinaryReader::ReadDouble() {
  double v;
  WMP_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<std::string> BinaryReader::ReadString() {
  WMP_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  if (pos_ + n > buf_.size()) return Status::OutOfRange("string truncated");
  std::string s(buf_.data() + pos_, n);
  pos_ += n;
  return s;
}

Result<std::vector<double>> BinaryReader::ReadDoubleVec() {
  WMP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > remaining() / sizeof(double)) {
    return Status::OutOfRange("double vector truncated");
  }
  std::vector<double> v(n);
  if (n > 0) WMP_RETURN_IF_ERROR(Take(v.data(), n * sizeof(double)));
  return v;
}

Result<std::vector<int>> BinaryReader::ReadIntVec() {
  WMP_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
  if (n > remaining() / sizeof(int)) {
    return Status::OutOfRange("int vector truncated");
  }
  std::vector<int> v(n);
  if (n > 0) WMP_RETURN_IF_ERROR(Take(v.data(), n * sizeof(int)));
  return v;
}

Result<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return BinaryReader(std::move(buf));
}

}  // namespace wmp
