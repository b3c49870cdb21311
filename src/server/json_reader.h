// The service parses request bodies with util::ParseJson, the reader it
// shares with the sweep-spec grammar (util/json_reader.h); these are its
// server-facing names.

#ifndef REGCLUSTER_SERVER_JSON_READER_H_
#define REGCLUSTER_SERVER_JSON_READER_H_

#include "util/json_reader.h"

namespace regcluster {
namespace server {

using util::JsonValue;
using util::ParseJson;

}  // namespace server
}  // namespace regcluster

#endif  // REGCLUSTER_SERVER_JSON_READER_H_
