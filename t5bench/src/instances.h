#ifndef T5BENCH_INSTANCES_H_
#define T5BENCH_INSTANCES_H_

// Query instances for the use-case classes, drawn from a code graph with a
// seeded generator. The program under test only ever sees the generated
// FQL text (or, for the embedded-API impact class, a node id); the
// structured parameters stay on the benchmark side for the oracle.

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "model/code_graph.h"

namespace t5 {

using frappe::graph::EdgeId;
using frappe::graph::NodeId;
using frappe::model::EdgeKind;
using frappe::model::NodeKind;
using frappe::model::PropKey;

// The benchmark's own read-only access paths over a code graph: a name
// map that mirrors the auto index's exact-term semantics (case-folded
// short names), and typed edge walks straight over the store. Instance
// drawing and the oracles use these, never the query engine.
class RefGraph {
 public:
  explicit RefGraph(const frappe::model::CodeGraph& graph);

  const frappe::graph::GraphStore& store() const { return store_; }
  const frappe::model::Schema& schema() const { return schema_; }

  // Nodes whose short name equals `name` case-insensitively (sorted).
  const std::vector<NodeId>& Named(std::string_view name) const;
  std::string_view ShortName(NodeId node) const;
  NodeKind Kind(NodeId node) const;
  // Nodes of one kind, ascending.
  std::vector<NodeId> NodesOf(NodeKind kind) const;
  // Integer property of an edge, if present.
  std::optional<int64_t> EdgeInt(EdgeId edge, PropKey key) const;

  // Calls fn(edge, other_end) for each edge of `kind` at `node`.
  template <typename Fn>
  void Edges(NodeId node, frappe::graph::Direction dir, EdgeKind kind,
             Fn&& fn) const {
    const frappe::graph::TypeId type = schema_.edge_type(kind);
    store_.ForEachEdge(node, dir, [&](EdgeId e, NodeId other) {
      if (store_.GetEdge(e).type == type) fn(e, other);
      return true;
    });
  }

 private:
  const frappe::graph::GraphStore& store_;
  const frappe::model::Schema& schema_;
  std::unordered_map<std::string, std::vector<NodeId>> by_name_;
  std::vector<NodeId> none_;
};

struct Instance {
  Cls cls = Cls::kSearch;
  std::string text;       // FQL sent to the program (empty for impact)
  std::string stratum;    // the cell of the size design it was drawn for

  // search (Fig. 3): entities named `name` of kind `kind` in the files
  // module `module` is built from.
  std::string module;
  NodeKind kind = NodeKind::kField;
  std::string name;
  // xref (Fig. 4): the callee named `name` of the call whose name token
  // sits at (file_id, line, col).
  int64_t file_id = 0, line = 0, col = 0;
  // debug (Fig. 5): writers of field `name` of record `record` reachable
  // from a call made by `from` on or before the call to `to` on `line`.
  std::string from, to, record;
  // closure (Fig. 6): closure of `name` over calls, forward or reverse.
  bool reverse = false;
  // impact: forward and backward slice of `function`.
  NodeId function = frappe::graph::kInvalidNode;
};

// How instances are spread over sizes. kKernel uses the fixed size design
// for the scale-0.2 kernel (see instances.cc); kAny takes any valid
// instance, for small extracted graphs that lack the kernel's spread.
enum class Design { kKernel, kAny };

// Draws `count` instances of `cls`, deterministically from `seed`. Fails
// when the graph holds no valid instance of the class.
frappe::Result<std::vector<Instance>> DrawInstances(const RefGraph& ref,
                                                   Cls cls, int count,
                                                   uint64_t seed,
                                                   Design design);

// Fig. 5's two halves as the reference walk sees them: the writes of field
// `name` of record `record` as (writer, write line), and the callee of
// every (r, s) call-site pair, where r is a call from `from` to `to` on
// `line` and s is another call `from` makes on or before that line.
struct DebugWalk {
  std::vector<std::pair<NodeId, std::optional<int64_t>>> writes;
  std::vector<NodeId> pair_callees;  // one entry per (r, s) pair
};
DebugWalk WalkDebug(const RefGraph& ref, const Instance& inst);

}  // namespace t5

#endif  // T5BENCH_INSTANCES_H_
