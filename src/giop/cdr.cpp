#include "giop/cdr.h"

namespace mead::giop {

// ------------------------------------------------------------- CdrWriter

void CdrWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size() + 1));
  buf_.insert(buf_.end(), s.begin(), s.end());
  buf_.push_back(0);
}

void CdrWriter::write_octet_seq(std::span<const std::uint8_t> bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  write_raw(bytes);
}

void CdrWriter::write_raw(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

// ------------------------------------------------------------- CdrReader

CdrResult<std::string> CdrReader::read_string() {
  auto len = read_u32();
  if (!len) return make_unexpected(len.error());
  if (len.value() == 0) return make_unexpected(CdrErr::kBadString);
  if (!has(len.value())) return make_unexpected(CdrErr::kLengthLimit);
  const std::size_t n = len.value() - 1;  // exclude NUL
  if (data_[pos_ + n] != 0) return make_unexpected(CdrErr::kBadString);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += len.value();
  return s;
}

CdrResult<Bytes> CdrReader::read_octet_seq() {
  auto len = read_u32();
  if (!len) return make_unexpected(len.error());
  if (!has(len.value())) return make_unexpected(CdrErr::kLengthLimit);
  Bytes out(data_ + pos_, data_ + pos_ + len.value());
  pos_ += len.value();
  return out;
}

CdrResult<SharedBytes> CdrReader::read_octet_window() {
  auto len = read_u32();
  if (!len) return make_unexpected(len.error());
  if (!has(len.value())) return make_unexpected(CdrErr::kLengthLimit);
  SharedBytes out = shared_ != nullptr
                        ? shared_->window(pos_, len.value())
                        : SharedBytes(Bytes(data_ + pos_,
                                            data_ + pos_ + len.value()));
  pos_ += len.value();
  return out;
}

CdrResult<Bytes> CdrReader::read_raw(std::size_t n) {
  if (!has(n)) return make_unexpected(CdrErr::kOutOfBounds);
  Bytes out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

}  // namespace mead::giop
