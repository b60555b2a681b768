#include "instances.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <set>

namespace t5 {

namespace fg = frappe::graph;
using frappe::Result;
using frappe::Status;
using fg::Direction;

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Names that survive both the lucene-style index query (a bare term) and
// an FQL string literal unchanged.
bool SafeName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-' && c != '/') {
      return false;
    }
  }
  std::string lower = Lower(name);
  return lower != "and" && lower != "or" && lower != "not";
}

const char* LabelOf(NodeKind kind) {
  switch (kind) {
    case NodeKind::kField: return "field";
    case NodeKind::kFunction: return "function";
    case NodeKind::kGlobal: return "global";
    default: return "";
  }
}

std::string IndexStart(const std::string& var, const std::string& name) {
  return var + "=node:node_auto_index('short_name: " + name + "')";
}

std::string SearchText(const Instance& i) {
  return "START " + IndexStart("m", i.module) +
         " MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f"
         " MATCH f -[:file_contains]-> (n:" + LabelOf(i.kind) +
         "{short_name: '" + i.name + "'}) RETURN n";
}

std::string XrefText(const Instance& i) {
  return "START " + IndexStart("n", i.name) +
         " WHERE (n) <-[{NAME_FILE_ID: " + std::to_string(i.file_id) +
         ", NAME_START_LINE: " + std::to_string(i.line) +
         ", NAME_START_COLUMN: " + std::to_string(i.col) +
         "}]- () RETURN n";
}

std::string DebugText(const Instance& i) {
  return "START " + IndexStart("from", i.from) + ", " + IndexStart("to", i.to) +
         ", " + IndexStart("b", i.record) +
         " MATCH writer -[write:writes_member]-> ({SHORT_NAME:'" + i.name +
         "'}) <-[:contains]- b WITH to, from, writer, write"
         " MATCH direct <-[s:calls]- from -[r:calls{use_start_line: " +
         std::to_string(i.line) +
         "}]-> to WHERE r.use_start_line >= s.use_start_line AND"
         " direct -[:calls*]-> writer"
         " RETURN distinct writer, write.use_start_line";
}

std::string ClosureText(const Instance& i) {
  return "START " + IndexStart("n", i.name) +
         (i.reverse ? " MATCH n <-[:calls*]- m" : " MATCH n -[:calls*]-> m") +
         " RETURN distinct m";
}

size_t CountEdges(const RefGraph& ref, NodeId node, Direction dir,
                  EdgeKind kind) {
  size_t n = 0;
  ref.Edges(node, dir, kind, [&](EdgeId, NodeId) { ++n; });
  return n;
}

std::vector<EdgeId> EdgesOf(const RefGraph& ref, EdgeKind kind) {
  const fg::GraphStore& store = ref.store();
  const fg::TypeId type = ref.schema().edge_type(kind);
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < store.EdgeIdUpperBound(); ++e) {
    if (store.EdgeExists(e) && store.GetEdge(e).type == type) out.push_back(e);
  }
  return out;
}

Status NoInstance(Cls cls, const std::string& why) {
  return Status::NotFound(std::string("no ") + ClassName(cls) +
                          " instance: " + why);
}

// Fig. 3: a module and the name of an entity in one of its files. The
// kernel design asks for fields, as the paper's example does; small
// extracted trees keep fields in headers, so kAny falls back to functions.
Result<std::vector<Instance>> DrawSearch(const RefGraph& ref, int count,
                                         Rng& rng, Design design) {
  std::vector<NodeId> modules;
  for (NodeId m : ref.NodesOf(NodeKind::kModule)) {
    if (SafeName(ref.ShortName(m))) modules.push_back(m);
  }
  if (modules.empty()) return NoInstance(Cls::kSearch, "no modules");
  std::vector<NodeKind> kinds = {NodeKind::kField};
  if (design == Design::kAny) kinds.push_back(NodeKind::kFunction);
  std::vector<Instance> out;
  for (NodeKind kind : kinds) {
    for (int attempt = 0;
         attempt < 4000 && static_cast<int>(out.size()) < count; ++attempt) {
      NodeId m = modules[rng.Below(modules.size())];
      std::vector<NodeId> frontier = {m};
      std::set<NodeId> files;
      while (!frontier.empty()) {
        NodeId at = frontier.back();
        frontier.pop_back();
        for (EdgeKind k : {EdgeKind::kCompiledFrom, EdgeKind::kLinkedFrom}) {
          ref.Edges(at, Direction::kOut, k, [&](EdgeId, NodeId next) {
            if (files.insert(next).second) frontier.push_back(next);
          });
        }
      }
      std::vector<std::string> names;
      for (NodeId f : files) {
        ref.Edges(f, Direction::kOut, EdgeKind::kFileContains,
                  [&](EdgeId, NodeId n) {
                    if (ref.Kind(n) == kind && SafeName(ref.ShortName(n))) {
                      names.emplace_back(ref.ShortName(n));
                    }
                  });
      }
      if (names.empty()) continue;
      Instance inst;
      inst.cls = Cls::kSearch;
      inst.module = std::string(ref.ShortName(m));
      inst.kind = kind;
      inst.name = names[rng.Below(names.size())];
      inst.stratum = LabelOf(kind);
      inst.text = SearchText(inst);
      out.push_back(std::move(inst));
    }
    if (!out.empty()) break;
  }
  if (out.empty()) return NoInstance(Cls::kSearch, "no named module entity");
  // A small tree may hold fewer distinct instances than asked for.
  for (size_t i = 0; static_cast<int>(out.size()) < count; ++i) {
    Instance copy = out[i];
    out.push_back(std::move(copy));
  }
  return out;
}

// Fig. 4: go to the definition of the callee of a uniformly drawn call.
Result<std::vector<Instance>> DrawXref(const RefGraph& ref, int count,
                                       Rng& rng) {
  std::vector<EdgeId> calls = EdgesOf(ref, EdgeKind::kCalls);
  std::vector<Instance> out;
  for (int attempt = 0; attempt < 100000 && !calls.empty() &&
                        static_cast<int>(out.size()) < count;
       ++attempt) {
    EdgeId e = calls[rng.Below(calls.size())];
    NodeId callee = ref.store().GetEdge(e).dst;
    auto file = ref.EdgeInt(e, PropKey::kNameFileId);
    auto line = ref.EdgeInt(e, PropKey::kNameStartLine);
    auto col = ref.EdgeInt(e, PropKey::kNameStartCol);
    if (!file || !line || !col || !SafeName(ref.ShortName(callee))) continue;
    Instance inst;
    inst.cls = Cls::kXref;
    inst.name = std::string(ref.ShortName(callee));
    inst.file_id = *file;
    inst.line = *line;
    inst.col = *col;
    inst.stratum = "call";
    inst.text = XrefText(inst);
    out.push_back(std::move(inst));
  }
  if (out.empty()) return NoInstance(Cls::kXref, "no annotated call edge");
  return out;
}

// Fig. 5 over a size design: writer rows w x earlier call-site pairs c
// span the cells below, so per-query work (one reachability question per
// (writer, call site) row) varies by an order of magnitude across the
// instances of one run, the same way in every run.
constexpr int kDebugWrites[] = {2, 4, 6};
constexpr int kDebugPairs[] = {1, 2, 3};
// Within a cell the work still spreads widely: a reachability question
// costs whatever part of the giant call component the search crosses
// before it meets the writer. So the kernel design draws this many
// candidates per cell and keeps the ones at evenly spaced quantiles of
// their work (DebugWork); every seed then asks for about the same work,
// and the class median moves with the program, not with the draw.
constexpr int kDebugCandidates = 96;

// Every node's out-edges in the store's order, each marked when it is a
// calls edge, for DebugWork.
struct OutLists {
  std::vector<size_t> offsets;  // node n's edges: [offsets[n], offsets[n+1])
  std::vector<NodeId> targets;
  std::vector<char> is_call;
};

OutLists BuildOutLists(const RefGraph& ref) {
  const fg::TypeId calls = ref.schema().edge_type(EdgeKind::kCalls);
  OutLists g;
  g.offsets.push_back(0);
  for (NodeId n = 0; n < ref.store().NodeIdUpperBound(); ++n) {
    if (ref.store().NodeExists(n)) {
      ref.store().ForEachEdge(n, Direction::kOut, [&](EdgeId e, NodeId m) {
        g.targets.push_back(m);
        g.is_call.push_back(ref.store().GetEdge(e).type == calls);
        return true;
      });
    }
    g.offsets.push_back(g.targets.size());
  }
  return g;
}

// The reachability work of a Fig. 5 instance, by the benchmark's own
// walk: for each (write, call-site pair) row, the edges a breadth-first
// search over calls from the pair's callee examines, and the nodes it
// discovers, until it discovers the writer (all it can reach when the
// writer is out of reach). The search takes out-edges in the store's
// order, so it meets the writer at the same point every time.
uint64_t DebugWork(const OutLists& g, const DebugWalk& walk) {
  std::map<NodeId, uint64_t> per_direct;  // summed over the writes
  for (NodeId direct : walk.pair_callees) per_direct[direct] = 0;
  std::vector<char> seen(g.offsets.size() - 1, 0);
  std::vector<NodeId> queue;
  for (auto& [direct, work] : per_direct) {
    std::fill(seen.begin(), seen.end(), 0);
    std::map<NodeId, int> open;  // writer -> its writes not yet met
    for (const auto& [writer, line] : walk.writes) ++open[writer];
    uint64_t cost = 1;  // edges examined + nodes discovered
    auto discover = [&](NodeId n) {
      seen[n] = 1;
      queue.push_back(n);
      auto it = open.find(n);
      if (it != open.end()) {
        work += cost * it->second;
        open.erase(it);
      }
    };
    queue.clear();
    discover(direct);
    for (size_t head = 0; head < queue.size() && !open.empty(); ++head) {
      const NodeId n = queue[head];
      for (size_t i = g.offsets[n]; i < g.offsets[n + 1] && !open.empty();
           ++i) {
        ++cost;
        if (g.is_call[i] && !seen[g.targets[i]]) {
          ++cost;
          discover(g.targets[i]);
        }
      }
    }
    for (const auto& [writer, writes] : open) work += cost * writes;
  }
  uint64_t total = 0;
  for (NodeId direct : walk.pair_callees) total += per_direct[direct];
  return total;
}

// Candidate search for Fig. 5: fields addressable through a uniquely
// named record, and call edges.
struct DebugSource {
  std::vector<std::pair<NodeId, NodeId>> fields;  // (field, record)
  std::vector<EdgeId> calls;
};

// One instance with `want_writes` writes and `want_pairs` call-site pairs
// (-1: any number above 0), or nothing when none turns up.
std::optional<Instance> DrawDebugOne(const RefGraph& ref,
                                     const DebugSource& src, Rng& rng,
                                     int want_writes, int want_pairs) {
  Instance inst;
  inst.cls = Cls::kDebug;
  bool have_field = false;
  for (int attempt = 0; attempt < 200000 && !have_field; ++attempt) {
    auto [f, record] = src.fields[rng.Below(src.fields.size())];
    inst.record = std::string(ref.ShortName(record));
    inst.name = std::string(ref.ShortName(f));
    inst.from.clear();
    int writes = static_cast<int>(WalkDebug(ref, inst).writes.size());
    have_field = want_writes < 0 ? writes > 0 : writes == want_writes;
  }
  bool have_call = false;
  for (int attempt = 0; attempt < 200000 && !have_call; ++attempt) {
    EdgeId r = src.calls[rng.Below(src.calls.size())];
    fg::Edge edge = ref.store().GetEdge(r);
    auto line = ref.EdgeInt(r, PropKey::kUseStartLine);
    if (!line || !SafeName(ref.ShortName(edge.src)) ||
        !SafeName(ref.ShortName(edge.dst))) {
      continue;
    }
    inst.from = std::string(ref.ShortName(edge.src));
    inst.to = std::string(ref.ShortName(edge.dst));
    inst.line = *line;
    int pairs = static_cast<int>(WalkDebug(ref, inst).pair_callees.size());
    have_call = want_pairs < 0 ? pairs > 0 : pairs == want_pairs;
  }
  if (!have_field || !have_call) return std::nullopt;
  DebugWalk walk = WalkDebug(ref, inst);
  inst.stratum = "w";
  inst.stratum += std::to_string(walk.writes.size());
  inst.stratum += 'c';
  inst.stratum += std::to_string(walk.pair_callees.size());
  inst.text = DebugText(inst);
  return inst;
}

// Instance i of the kernel design belongs to cell i % 9. A cell with n
// instances keeps, of its kDebugCandidates candidates in order of work,
// the ones at quantiles (j + 0.5) / n, middle quantile first, so the first
// instance of every cell (warm-up, layer probe) is a typical one.
Result<std::vector<Instance>> DrawDebug(const RefGraph& ref, int count,
                                        Rng& rng, Design design) {
  DebugSource src;
  for (NodeId f : ref.NodesOf(NodeKind::kField)) {
    if (!SafeName(ref.ShortName(f))) continue;
    NodeId record = fg::kInvalidNode;
    ref.Edges(f, Direction::kIn, EdgeKind::kContains,
              [&](EdgeId, NodeId owner) { record = owner; });
    if (record == fg::kInvalidNode || !SafeName(ref.ShortName(record)) ||
        ref.Named(ref.ShortName(record)).size() != 1) {
      continue;
    }
    src.fields.emplace_back(f, record);
  }
  src.calls = EdgesOf(ref, EdgeKind::kCalls);
  if (src.fields.empty() || src.calls.empty()) {
    return NoInstance(Cls::kDebug, "no written record field or no calls");
  }
  std::vector<Instance> out;
  if (design == Design::kAny) {
    for (int i = 0; i < count; ++i) {
      std::optional<Instance> inst = DrawDebugOne(ref, src, rng, -1, -1);
      if (!inst) return NoInstance(Cls::kDebug, "no instance");
      out.push_back(std::move(*inst));
    }
    return out;
  }
  const OutLists lists = BuildOutLists(ref);
  std::vector<Instance> picked[9];
  for (int cell = 0; cell < 9; ++cell) {
    const int n = count / 9 + (cell < count % 9 ? 1 : 0);
    if (n == 0) continue;
    const int want_writes = kDebugWrites[cell / 3];
    const int want_pairs = kDebugPairs[cell % 3];
    std::vector<std::pair<uint64_t, Instance>> candidates;
    for (int k = 0; k < kDebugCandidates; ++k) {
      std::optional<Instance> inst =
          DrawDebugOne(ref, src, rng, want_writes, want_pairs);
      if (!inst) {
        return NoInstance(Cls::kDebug, "no instance for cell " +
                                           std::to_string(want_writes) + "x" +
                                           std::to_string(want_pairs));
      }
      uint64_t work = DebugWork(lists, WalkDebug(ref, *inst));
      candidates.emplace_back(work, std::move(*inst));
    }
    std::stable_sort(
        candidates.begin(), candidates.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<int> order(n);
    for (int j = 0; j < n; ++j) order[j] = j;
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return std::abs(2 * a - (n - 1)) < std::abs(2 * b - (n - 1));
    });
    for (int j : order) {
      picked[cell].push_back(
          candidates[(2 * j + 1) * kDebugCandidates / (2 * n)].second);
    }
  }
  for (int i = 0; i < count; ++i) {
    out.push_back(std::move(picked[i % 9][i / 9]));
  }
  return out;
}

// Fig. 6 through the CSR fast path: two forward closures (what does it
// call) for every reverse one (who calls it, over the lazily built
// transpose); the second instance is reverse, so a two-instance warm-up
// builds both directions. Every function of the generated kernel reaches
// its giant call component, so reach sets are all in the tens of thousands.
Result<std::vector<Instance>> DrawClosure(const RefGraph& ref, int count,
                                          Rng& rng) {
  std::vector<NodeId> functions;
  for (NodeId fn : ref.NodesOf(NodeKind::kFunction)) {
    if (SafeName(ref.ShortName(fn))) functions.push_back(fn);
  }
  std::vector<Instance> out;
  for (int attempt = 0; attempt < 100000 && !functions.empty() &&
                        static_cast<int>(out.size()) < count;
       ++attempt) {
    NodeId fn = functions[rng.Below(functions.size())];
    bool reverse = out.size() % 3 == 1;
    if (CountEdges(ref, fn, reverse ? Direction::kIn : Direction::kOut,
                   EdgeKind::kCalls) == 0) {
      continue;
    }
    Instance inst;
    inst.cls = Cls::kClosure;
    inst.name = std::string(ref.ShortName(fn));
    inst.reverse = reverse;
    inst.stratum = reverse ? "reverse" : "forward";
    inst.text = ClosureText(inst);
    out.push_back(std::move(inst));
  }
  if (out.empty()) return NoInstance(Cls::kClosure, "no calling function");
  return out;
}

// Impact slices of functions that both call and are called.
Result<std::vector<Instance>> DrawImpact(const RefGraph& ref, int count,
                                         Rng& rng) {
  std::vector<NodeId> functions = ref.NodesOf(NodeKind::kFunction);
  std::vector<Instance> out;
  for (int attempt = 0; attempt < 100000 && !functions.empty() &&
                        static_cast<int>(out.size()) < count;
       ++attempt) {
    NodeId fn = functions[rng.Below(functions.size())];
    if (CountEdges(ref, fn, Direction::kIn, EdgeKind::kCalls) == 0 ||
        CountEdges(ref, fn, Direction::kOut, EdgeKind::kCalls) == 0) {
      continue;
    }
    Instance inst;
    inst.cls = Cls::kImpact;
    inst.function = fn;
    inst.name = std::string(ref.ShortName(fn));
    inst.stratum = "function";
    out.push_back(std::move(inst));
  }
  if (out.empty()) return NoInstance(Cls::kImpact, "no called caller");
  return out;
}

}  // namespace

RefGraph::RefGraph(const frappe::model::CodeGraph& graph)
    : store_(graph.store()), schema_(graph.schema()) {
  const fg::KeyId key = schema_.key(PropKey::kShortName);
  for (NodeId n = 0; n < store_.NodeIdUpperBound(); ++n) {
    if (!store_.NodeExists(n)) continue;
    std::string_view name = store_.GetNodeString(n, key);
    if (!name.empty()) by_name_[Lower(name)].push_back(n);
  }
}

const std::vector<NodeId>& RefGraph::Named(std::string_view name) const {
  auto it = by_name_.find(Lower(name));
  return it == by_name_.end() ? none_ : it->second;
}

std::string_view RefGraph::ShortName(NodeId node) const {
  return store_.GetNodeString(node, schema_.key(PropKey::kShortName));
}

NodeKind RefGraph::Kind(NodeId node) const {
  return schema_.node_kind(store_.NodeType(node));
}

std::vector<NodeId> RefGraph::NodesOf(NodeKind kind) const {
  const fg::TypeId type = schema_.node_type(kind);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < store_.NodeIdUpperBound(); ++n) {
    if (store_.NodeExists(n) && store_.NodeType(n) == type) out.push_back(n);
  }
  return out;
}

std::optional<int64_t> RefGraph::EdgeInt(EdgeId edge, PropKey key) const {
  fg::Value v = store_.GetEdgeProperty(edge, schema_.key(key));
  if (v.type() != fg::ValueType::kInt) return std::nullopt;
  return v.AsInt();
}

DebugWalk WalkDebug(const RefGraph& ref, const Instance& inst) {
  DebugWalk walk;
  for (NodeId b : ref.Named(inst.record)) {
    ref.Edges(b, Direction::kOut, EdgeKind::kContains, [&](EdgeId, NodeId f) {
      if (ref.ShortName(f) != inst.name) return;
      ref.Edges(f, Direction::kIn, EdgeKind::kWritesMember,
                [&](EdgeId w, NodeId writer) {
                  walk.writes.emplace_back(
                      writer, ref.EdgeInt(w, PropKey::kUseStartLine));
                });
    });
  }
  if (inst.from.empty()) return walk;
  const std::vector<NodeId>& to = ref.Named(inst.to);
  for (NodeId from : ref.Named(inst.from)) {
    ref.Edges(from, Direction::kOut, EdgeKind::kCalls, [&](EdgeId r, NodeId t) {
      auto r_line = ref.EdgeInt(r, PropKey::kUseStartLine);
      if (!r_line || *r_line != inst.line ||
          !std::binary_search(to.begin(), to.end(), t)) {
        return;
      }
      ref.Edges(from, Direction::kOut, EdgeKind::kCalls,
                [&](EdgeId s, NodeId direct) {
                  auto s_line = ref.EdgeInt(s, PropKey::kUseStartLine);
                  if (s != r && s_line && *s_line <= *r_line) {
                    walk.pair_callees.push_back(direct);
                  }
                });
    });
  }
  return walk;
}

Result<std::vector<Instance>> DrawInstances(const RefGraph& ref, Cls cls,
                                            int count, uint64_t seed,
                                            Design design) {
  // One stream per class, so adding instances of one class never moves
  // the instances drawn for another.
  Rng rng(seed * 0x100000001b3ull + static_cast<uint64_t>(cls) + 1);
  switch (cls) {
    case Cls::kSearch: return DrawSearch(ref, count, rng, design);
    case Cls::kXref: return DrawXref(ref, count, rng);
    case Cls::kDebug: return DrawDebug(ref, count, rng, design);
    case Cls::kClosure: return DrawClosure(ref, count, rng);
    case Cls::kImpact: return DrawImpact(ref, count, rng);
  }
  return Status::InvalidArgument("unknown class");
}

}  // namespace t5
