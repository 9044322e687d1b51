// CORBA object identity types: object keys, IORs, system exceptions.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "giop/cdr.h"
#include "net/types.h"

namespace mead::giop {

/// Opaque persistent object key. The paper's application uses CORBA
/// persistent object key policies so that a key survives server restarts and
/// is identical across replicas (§4) — that property is what makes request
/// forwarding between replicas sound. Keys in the paper's test app were
/// ~52 bytes; make_persistent_key pads similarly so the hash-vs-compare
/// ablation (§4.1) is measured on realistic key sizes.
class ObjectKey {
 public:
  ObjectKey() = default;
  explicit ObjectKey(Bytes raw) : raw_(std::move(raw)) {}

  /// Builds a padded persistent key from a POA-style path, e.g.
  /// "TimeOfDayPOA/TimeServiceObject". Deterministic across incarnations.
  static ObjectKey make_persistent(const std::string& path,
                                   std::size_t padded_size = 52);

  [[nodiscard]] const Bytes& raw() const { return raw_; }
  [[nodiscard]] bool empty() const { return raw_.empty(); }

  /// 16-bit hash used by the LOCATION_FORWARD interceptor for IOR lookup
  /// instead of byte-by-byte key comparison (the §4.1 optimization).
  [[nodiscard]] std::uint16_t hash16() const;

  friend bool operator==(const ObjectKey&, const ObjectKey&) = default;
  friend auto operator<=>(const ObjectKey& a, const ObjectKey& b) {
    return a.raw_ <=> b.raw_;
  }

 private:
  Bytes raw_;
};

/// Interoperable Object Reference (single IIOP profile): everything a client
/// needs to reach one CORBA object — repository type id, host, port, key.
///
/// Non-aggregate by design (see net::Endpoint for the GCC 12 rationale).
struct IOR {
  IOR() = default;
  IOR(std::string type_id_, net::Endpoint endpoint_, ObjectKey key_)
      : type_id(std::move(type_id_)), endpoint(std::move(endpoint_)),
        key(std::move(key_)) {}

  std::string type_id;     // e.g. "IDL:mead/TimeOfDay:1.0"
  net::Endpoint endpoint;  // IIOP profile host/port
  ObjectKey key;

  [[nodiscard]] bool valid() const { return !endpoint.host.empty(); }

  friend bool operator==(const IOR&, const IOR&) = default;
};

/// Marshals an IOR into a CDR stream (and back). Used by the Naming Service,
/// by LOCATION_FORWARD reply bodies, and by MEAD's IOR broadcast.
void encode_ior(CdrWriter& w, const IOR& ior);
CdrResult<IOR> decode_ior(CdrReader& r);

/// Codec hooks (giop/codec.h): a message field of type IOR travels in the
/// encode_ior layout.
inline void codec_write(CdrWriter& w, const IOR& ior) { encode_ior(w, ior); }
inline bool codec_read(CdrReader& r, IOR& ior) {
  auto v = decode_ior(r);
  if (v) ior = std::move(v).value();
  return v.ok();
}

/// The CORBA system exceptions the paper's experiments observe.
enum class SysExKind : std::uint32_t {
  kCommFailure = 0,   // CORBA::COMM_FAILURE — connection died mid-call
  kTransient = 1,     // CORBA::TRANSIENT — e.g. stale reference, retry later
  kObjectNotExist = 2,
  kNoImplement = 3,
  kMarshal = 4,
  kInternal = 5,
  kTimeout = 6,       // CORBA::TIMEOUT (messaging)
};

[[nodiscard]] std::string_view repository_id(SysExKind kind);

enum class CompletionStatus : std::uint32_t {
  kYes = 0,
  kNo = 1,
  kMaybe = 2,
};

struct SystemException {
  SystemException() = default;
  SystemException(SysExKind kind_, std::uint32_t minor_, CompletionStatus c)
      : kind(kind_), minor(minor_), completed(c) {}

  SysExKind kind = SysExKind::kInternal;
  std::uint32_t minor = 0;
  CompletionStatus completed = CompletionStatus::kMaybe;

  friend bool operator==(const SystemException&, const SystemException&) = default;
};

void encode_system_exception(CdrWriter& w, const SystemException& ex);
CdrResult<SystemException> decode_system_exception(CdrReader& r);

}  // namespace mead::giop
