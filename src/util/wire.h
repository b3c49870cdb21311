// Little-endian binary codec shared by the durable on-disk formats
// (RGCXCKP1 checkpoints, RGCXINC1 incremental state).
//
// Encoding is a family of Put* appenders; decoding is a bounds-checked
// Cursor over one record payload.  Any overrun is the same kind of damage as
// a torn write, so the cursor reports kCorruption naming the format label
// and the field ("truncated checkpoint field nodes_expanded").  Framing and
// integrity (CRC32C records) live in util/durable_file.h.

#ifndef REGCLUSTER_UTIL_WIRE_H_
#define REGCLUSTER_UTIL_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace regcluster {
namespace util {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutDouble(std::string* out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline void PutIntVector(std::string* out, const std::vector<int>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (int x : v) PutU32(out, static_cast<uint32_t>(x));
}

/// Bounds-checked sequential decoder over one record payload.  `label`
/// names the format in error messages and must outlive the cursor.
class Cursor {
 public:
  Cursor(std::string_view data, const char* label)
      : data_(data), label_(label) {}

  Status ReadU32(const char* field, uint32_t* v) {
    REGCLUSTER_RETURN_IF_ERROR(Need(field, 4));
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    *v = r;
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(const char* field, uint64_t* v) {
    REGCLUSTER_RETURN_IF_ERROR(Need(field, 8));
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    *v = r;
    pos_ += 8;
    return Status::OK();
  }

  Status ReadI64(const char* field, int64_t* v) {
    uint64_t u = 0;
    REGCLUSTER_RETURN_IF_ERROR(ReadU64(field, &u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadDouble(const char* field, double* v) {
    uint64_t u = 0;
    REGCLUSTER_RETURN_IF_ERROR(ReadU64(field, &u));
    *v = std::bit_cast<double>(u);
    return Status::OK();
  }

  Status ReadString(const char* field, std::string* v) {
    uint32_t len = 0;
    REGCLUSTER_RETURN_IF_ERROR(ReadU32(field, &len));
    REGCLUSTER_RETURN_IF_ERROR(Need(field, len));
    v->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status ReadIntVector(const char* field, std::vector<int>* v) {
    uint32_t count = 0;
    REGCLUSTER_RETURN_IF_ERROR(ReadU32(field, &count));
    REGCLUSTER_RETURN_IF_ERROR(Need(field, 4ull * count));
    v->resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t x = 0;
      (void)ReadU32(field, &x);  // bounds already checked
      (*v)[i] = static_cast<int>(x);
    }
    return Status::OK();
  }

  Status ExpectDone(const char* record) {
    if (pos_ != data_.size()) {
      return Status::Corruption(std::string("trailing bytes in ") + label_ +
                                " record " + record);
    }
    return Status::OK();
  }

 private:
  Status Need(const char* field, uint64_t bytes) {
    if (data_.size() - pos_ < bytes) {
      return Status::Corruption(std::string("truncated ") + label_ +
                                " field " + field);
    }
    return Status::OK();
  }

  std::string_view data_;
  const char* label_;
  size_t pos_ = 0;
};

}  // namespace util
}  // namespace regcluster

#endif  // REGCLUSTER_UTIL_WIRE_H_
