#ifndef T5BENCH_ORACLE_H_
#define T5BENCH_ORACLE_H_

// Result oracles. Every operation's answer is checked against an expected
// answer computed in set-up, before any timing, on the generated graph
// (not the snapshot the program loads):
//   search   direct store walk of the module's files;
//   xref     the callee of the drawn call edge, found by its name token;
//   debug    the (writer, line) set built from graph::IsReachable over
//            `from`'s earlier call sites;
//   closure  graph::TransitiveClosure of the seed(s);
//   impact   graph::TransitiveClosure in each direction.
// Rows compare as multisets of their ResultValue::ToString text, by an
// order-free digest, in process and over HTTP alike; node-id answers
// (ParallelClosure, the impact slices) compare as sorted id vectors.

#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "instances.h"
#include "query/database.h"
#include "query/executor.h"

namespace t5 {

struct Expected {
  RowDigest rows;                         // digest of the ToString rows
  std::vector<NodeId> reached;            // closure: the reach set, sorted
  std::vector<NodeId> forward, backward;  // impact slices, sorted
};

// `render_db` renders expected rows with ResultValue::ToString; it must
// be wired over the same graph as `ref`.
Expected Expect(const RefGraph& ref, const frappe::query::Database& render_db,
                const Instance& inst);

// The (direct, writer) pairs whose reachability decides a debug
// instance's rows.
std::vector<std::pair<NodeId, NodeId>> DebugReachPairs(const RefGraph& ref,
                                                       const Instance& inst);

// The expected answer taken from another execution's rows (the ingest
// probe is compared with the same query on the in-memory graph).
Expected ExpectFromResult(const frappe::query::QueryResult& result,
                          const frappe::query::Database& db);

// ToString cells joined with kCellSeparator — the row text the server
// puts on the wire.
std::string RowText(const std::vector<frappe::query::ResultValue>& row,
                    const frappe::query::Database& db);

bool CheckRows(const Expected& expected,
               const frappe::query::QueryResult& result,
               const frappe::query::Database& db);
bool CheckSlices(const Expected& expected, std::vector<NodeId> forward,
                 std::vector<NodeId> backward);
// `body` is a /query response body.
bool CheckResponseRows(const Expected& expected, std::string_view body);

}  // namespace t5

#endif  // T5BENCH_ORACLE_H_
