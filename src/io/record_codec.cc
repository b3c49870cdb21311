#include "io/record_codec.h"

#include <utility>

namespace regcluster {
namespace io {

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
  REGCLUSTER_RETURN_IF_ERROR(c->ReadU32("flags", &ctx->flags));
  return c->ExpectDone("context");
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
  clusters->clear();
  clusters->reserve(count < (1u << 20) ? count : (1u << 20));
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

}  // namespace io
}  // namespace regcluster
