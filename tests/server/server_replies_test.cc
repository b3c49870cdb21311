// Pinned daemon replies: a fixed battery of deterministic_output requests
// over one committed text matrix and one committed binary matrix
// (tests/server/testdata), asserted byte-for-byte against the recorded
// replies at service threads 1 and 4.  The replies pin everything the
// service renders -- clusters, work counters, sweep grouping, per-point
// errors and the HTTP status of a rejected request -- so a refactor of
// the request pipeline cannot move a reply byte unnoticed.
//
// To re-record after an intended change to the reply format, run the
// test binary with REGCLUSTER_RECORD_REPLIES=1: it rewrites the reply
// files in the source tree instead of comparing.

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/service.h"

namespace regcluster {
namespace server {
namespace {

const std::string kDir = REGCLUSTER_SERVER_TESTDATA_DIR;

struct Case {
  const char* name;
  const char* endpoint;  // "/mine" or "/sweep"
  const char* fields;    // body fields after "matrix"
};

// Every case asks for deterministic_output, so the reply is a pure
// function of the matrix and the request.
const std::vector<Case>& Battery() {
  static const std::vector<Case> battery = {
      {"preview", "/mine",
       "\"ming\":5,\"minc\":5,\"gamma\":0.1,\"epsilon\":0.05,"
       "\"max_nodes\":120"},
      {"full", "/mine",
       "\"ming\":5,\"minc\":5,\"gamma\":0.1,\"epsilon\":0.05"},
      {"sweep_minc", "/sweep",
       "\"ming\":3,\"gamma\":0.1,\"epsilon\":0.2,\"spec\":\"minc=7;8;9\""},
      {"sweep_mixed_gamma", "/sweep",
       "\"ming\":5,\"epsilon\":0.05,"
       "\"spec\":\"gamma=0.1;0.15;0.1,minc=5;6\""},
      {"bad_gamma", "/mine",
       "\"ming\":4,\"minc\":4,\"gamma\":2.0,\"epsilon\":0.1"},
      {"bad_minc", "/mine",
       "\"ming\":4,\"minc\":50,\"gamma\":0.1,\"epsilon\":0.1"},
  };
  return battery;
}

const std::vector<std::string>& Matrices() {
  static const std::vector<std::string> matrices = {"text.tsv", "binary.rgx"};
  return matrices;
}

std::string ReplyPath(const std::string& matrix, const Case& c) {
  return kDir + "/replies/" + matrix.substr(0, matrix.find('.')) + "_" +
         c.name + ".txt";
}

// The pinned form of a reply: the HTTP status line, then the body.
std::string Render(const ServiceResponse& r) {
  return std::to_string(r.http_status) + " " + r.status_name + "\n" + r.body;
}

std::string Request(MiningService* service, const std::string& matrix,
                    const Case& c) {
  const std::string body = "{\"matrix\":\"" + kDir + "/" + matrix + "\"," +
                           c.fields +
                           ",\"collect_stats\":true,"
                           "\"deterministic_output\":true}";
  return Render(service->HandleHttp("POST", c.endpoint, body));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class PinnedReplies : public ::testing::TestWithParam<int> {};

TEST_P(PinnedReplies, BatteryMatchesRecordedBytes) {
  MiningService::Options options;
  options.num_threads = GetParam();
  MiningService service(options);
  const bool record = std::getenv("REGCLUSTER_RECORD_REPLIES") != nullptr;
  for (const std::string& matrix : Matrices()) {
    for (const Case& c : Battery()) {
      const std::string reply = Request(&service, matrix, c);
      const std::string path = ReplyPath(matrix, c);
      if (record) {
        std::ofstream(path, std::ios::binary) << reply;
        continue;
      }
      EXPECT_EQ(reply, ReadFile(path)) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ServiceThreads, PinnedReplies,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace server
}  // namespace regcluster
