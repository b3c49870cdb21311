#include "io/record_codec.h"

#include <cstring>
#include <utility>

namespace regcluster {
namespace io {

namespace {

constexpr uint32_t kVersion = 1;
constexpr uint32_t kEndianTag = 0x01020304;
constexpr size_t kPreambleBytes = 16;  // magic + version + endian tag

// The smallest encoded cluster: three empty u32-length vectors.
constexpr uint64_t kMinClusterBytes = 12;

std::string Dims(const RunContext& ctx) {
  return std::to_string(ctx.num_genes) + "x" +
         std::to_string(ctx.num_conditions);
}

}  // namespace

util::Status CheckRunContext(const RunContext& have, const RunContext& want,
                             const char* what, const char* options) {
  const std::string artifact(what);
  if (have.num_genes != want.num_genes ||
      have.num_conditions != want.num_conditions) {
    return util::Status::FailedPrecondition(
        artifact + " matrix dimensions differ: stored " + Dims(have) +
        ", requested " + Dims(want));
  }
  if (have.flags != want.flags) {
    return util::Status::FailedPrecondition(
        artifact + " dominance-pass setting differs from the requested "
                   "options");
  }
  if (have.options_hash != want.options_hash) {
    return util::Status::FailedPrecondition(
        artifact + " was written under different " + options +
        " (options hash mismatch)");
  }
  if (have.matrix_hash != want.matrix_hash) {
    return util::Status::FailedPrecondition(
        artifact + " was written for a different matrix (content hash "
                   "mismatch)");
  }
  return util::Status::OK();
}

void PutRunContext(std::string* out, const RunContext& ctx) {
  util::PutU64(out, ctx.options_hash);
  util::PutU64(out, ctx.matrix_hash.hi);
  util::PutU64(out, ctx.matrix_hash.lo);
  util::PutI64(out, ctx.num_genes);
  util::PutI64(out, ctx.num_conditions);
  util::PutU32(out, ctx.flags);
}

util::Status ReadRunContext(util::Cursor* c, RunContext* ctx) {
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadU64("semantic_options_hash", &ctx->options_hash));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadU64("matrix_hash.hi", &ctx->matrix_hash.hi));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadU64("matrix_hash.lo", &ctx->matrix_hash.lo));
  REGCLUSTER_RETURN_IF_ERROR(c->ReadI64("num_genes", &ctx->num_genes));
  REGCLUSTER_RETURN_IF_ERROR(
      c->ReadI64("num_conditions", &ctx->num_conditions));
  return c->ReadU32("flags", &ctx->flags);
}

void PutMinerStats(std::string* out, const core::MinerStats& stats) {
  for (const core::MinerStatsField& f : core::kMinerStatsFields) {
    if (f.cls == core::StatsFieldClass::kProfile) continue;
    if (f.count != nullptr) {
      util::PutI64(out, stats.*f.count);
    } else {
      util::PutDouble(out, stats.*f.seconds);
    }
  }
}

util::Status ReadMinerStats(util::Cursor* c, core::MinerStats* stats) {
  for (const core::MinerStatsField& f : core::kMinerStatsFields) {
    if (f.cls == core::StatsFieldClass::kProfile) continue;
    REGCLUSTER_RETURN_IF_ERROR(
        f.count != nullptr ? c->ReadI64(f.name, &(stats->*f.count))
                           : c->ReadDouble(f.name, &(stats->*f.seconds)));
  }
  return util::Status::OK();
}

void PutClusters(std::string* out,
                 const std::vector<core::RegCluster>& clusters) {
  util::PutU64(out, clusters.size());
  for (const core::RegCluster& c : clusters) {
    util::PutIntVector(out, c.chain);
    util::PutIntVector(out, c.p_genes);
    util::PutIntVector(out, c.n_genes);
  }
}

util::Status ReadClusters(util::Cursor* c,
                          std::vector<core::RegCluster>* clusters) {
  uint64_t count = 0;
  REGCLUSTER_RETURN_IF_ERROR(c->ReadU64("cluster count", &count));
  if (count > c->remaining() / kMinClusterBytes) {
    return util::Status::Corruption("cluster count " + std::to_string(count) +
                                    " exceeds what its record can hold");
  }
  clusters->clear();
  clusters->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    core::RegCluster cl;
    REGCLUSTER_RETURN_IF_ERROR(c->ReadIntVector("cluster chain", &cl.chain));
    REGCLUSTER_RETURN_IF_ERROR(
        c->ReadIntVector("cluster p_genes", &cl.p_genes));
    REGCLUSTER_RETURN_IF_ERROR(
        c->ReadIntVector("cluster n_genes", &cl.n_genes));
    clusters->push_back(std::move(cl));
  }
  return util::Status::OK();
}

void PutPreamble(std::string* out, const char (&magic)[8]) {
  out->append(magic, sizeof magic);
  util::PutU32(out, kVersion);
  util::PutU32(out, kEndianTag);
}

util::StatusOr<util::Cursor> RecordFileReader::ReadPreamble(
    const char (&magic)[8], size_t extra_bytes) {
  const std::string label(label_);
  if (bytes_.size() < kPreambleBytes + extra_bytes) {
    return util::Status::Corruption(label + " file shorter than preamble");
  }
  if (std::memcmp(bytes_.data(), magic, sizeof magic) != 0) {
    return util::Status::Corruption("bad " + label + " magic");
  }
  util::Cursor pre(bytes_.substr(sizeof magic, kPreambleBytes - sizeof magic),
                   label_);
  uint32_t version = 0, endian = 0;
  (void)pre.ReadU32("version", &version);  // length checked above
  (void)pre.ReadU32("endian tag", &endian);
  if (version != kVersion) {
    return util::Status::Corruption("unsupported " + label + " version " +
                                    std::to_string(version));
  }
  if (endian != kEndianTag) {
    return util::Status::Corruption(label + " endianness mismatch");
  }
  records_ = util::RecordReader(bytes_.substr(kPreambleBytes + extra_bytes));
  return util::Cursor(bytes_.substr(kPreambleBytes, extra_bytes), label_);
}

util::StatusOr<util::Cursor> RecordFileReader::Next(uint32_t tag,
                                                    const char* what) {
  if (records_.AtEnd()) {
    return util::Status::Corruption(std::string("missing ") + label_ +
                                    " record " + what);
  }
  auto payload = records_.Next();
  if (!payload.ok()) return payload.status();
  util::Cursor c(*payload, label_);
  uint32_t got = 0;
  REGCLUSTER_RETURN_IF_ERROR(c.ReadU32("record tag", &got));
  if (got != tag) {
    return util::Status::Corruption(std::string("unexpected ") + label_ +
                                    " record tag where " + what +
                                    " was required");
  }
  return c;
}

util::Status RecordFileReader::ExpectEnd() const {
  if (!records_.AtEnd()) {
    return util::Status::Corruption(std::string("trailing bytes after ") +
                                    label_ + " footer");
  }
  return util::Status::OK();
}

}  // namespace io
}  // namespace regcluster
