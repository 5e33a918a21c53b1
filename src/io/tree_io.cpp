#include "io/tree_io.h"

#include <fstream>
#include <map>
#include <sstream>

namespace lubt {

std::string FormatTreeSolution(const TreeSolution& tree) {
  std::ostringstream os;
  os.precision(17);
  os << "tree v1\n";
  os << "mode "
     << (tree.topo.Mode() == RootMode::kFixedSource ? "fixed" : "free")
     << '\n';
  for (NodeId v = 0; v < tree.topo.NumNodes(); ++v) {
    const TopoNode& node = tree.topo.Node(v);
    os << "node " << v << ' ' << node.left << ' ' << node.right << ' '
       << node.sink << '\n';
  }
  os << "root " << tree.topo.Root() << '\n';
  for (NodeId v = 0; v < tree.topo.NumNodes(); ++v) {
    if (v != tree.topo.Root()) {
      os << "edge " << v << ' '
         << tree.edge_len[static_cast<std::size_t>(v)] << '\n';
    }
  }
  for (std::size_t v = 0; v < tree.locations.size(); ++v) {
    os << "loc " << v << ' ' << tree.locations[v].x << ' '
       << tree.locations[v].y << '\n';
  }
  return os.str();
}

Result<TreeSolution> ParseTreeSolution(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [&line_no](const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                   msg);
  };

  struct RawNode {
    std::int32_t left;
    std::int32_t right;
    std::int32_t sink;
  };
  std::map<std::int32_t, RawNode> raw;
  std::map<std::int32_t, double> edges;
  std::map<std::int32_t, Point> locs;
  std::int32_t root = -1;
  bool saw_header = false;
  RootMode mode = RootMode::kFreeSource;

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    if (kind == "tree") {
      std::string version;
      if (!(ls >> version) || version != "v1") {
        return fail("unsupported tree file version");
      }
      saw_header = true;
    } else if (kind == "mode") {
      std::string m;
      if (!(ls >> m)) return fail("mode requires a value");
      if (m == "fixed") mode = RootMode::kFixedSource;
      else if (m == "free") mode = RootMode::kFreeSource;
      else return fail("unknown mode '" + m + "'");
    } else if (kind == "node") {
      std::int32_t id = 0;
      RawNode node{};
      if (!(ls >> id >> node.left >> node.right >> node.sink)) {
        return fail("node requires id, left, right, sink");
      }
      if (!raw.emplace(id, node).second) return fail("duplicate node id");
    } else if (kind == "root") {
      if (!(ls >> root)) return fail("root requires an id");
    } else if (kind == "edge") {
      std::int32_t id = 0;
      double len = 0.0;
      if (!(ls >> id >> len)) return fail("edge requires id and length");
      if (len < 0.0) return fail("negative edge length");
      edges[id] = len;
    } else if (kind == "loc") {
      std::int32_t id = 0;
      Point p;
      if (!(ls >> id >> p.x >> p.y)) return fail("loc requires id, x, y");
      locs[id] = p;
    } else {
      return fail("unknown record '" + kind + "'");
    }
    std::string trailing;
    if (ls >> trailing) return fail("trailing token '" + trailing + "'");
  }
  if (!saw_header) return Status::InvalidArgument("missing 'tree v1' header");
  if (raw.empty()) return Status::InvalidArgument("no nodes");
  if (root < 0) return Status::InvalidArgument("no root");

  // Ids must be dense 0..n-1 with children before parents.
  const auto n = static_cast<std::int32_t>(raw.size());
  TreeSolution out;
  for (std::int32_t id = 0; id < n; ++id) {
    const auto it = raw.find(id);
    if (it == raw.end()) {
      return Status::InvalidArgument("node ids must be dense 0..n-1");
    }
    const RawNode& node = it->second;
    if (node.left == kInvalidNode && node.right == kInvalidNode) {
      if (node.sink < 0) {
        return Status::InvalidArgument("leaf node " + std::to_string(id) +
                                       " without sink index");
      }
      const NodeId made = out.topo.AddSinkNode(node.sink);
      LUBT_ASSERT(made == id);
    } else if (node.right == kInvalidNode) {
      if (node.left < 0 || node.left >= id) {
        return Status::InvalidArgument("children must precede parents");
      }
      if (out.topo.Parent(node.left) != kInvalidNode) {
        return Status::InvalidArgument("node " + std::to_string(node.left) +
                                       " claimed by two parents");
      }
      const NodeId made = out.topo.AddUnaryNode(node.left);
      LUBT_ASSERT(made == id);
    } else {
      if (node.left < 0 || node.left >= id || node.right < 0 ||
          node.right >= id || node.left == node.right) {
        return Status::InvalidArgument("children must precede parents");
      }
      if (out.topo.Parent(node.left) != kInvalidNode ||
          out.topo.Parent(node.right) != kInvalidNode) {
        return Status::InvalidArgument("node claimed by two parents");
      }
      const NodeId made = out.topo.AddInternalNode(node.left, node.right);
      LUBT_ASSERT(made == id);
    }
  }
  if (root >= n) return Status::InvalidArgument("root id out of range");
  if (out.topo.Parent(root) != kInvalidNode) {
    return Status::InvalidArgument("root has a parent");
  }
  if (mode == RootMode::kFixedSource) {
    const TopoNode& r = out.topo.Node(root);
    if (r.left == kInvalidNode || r.right != kInvalidNode || r.sink >= 0) {
      return Status::InvalidArgument(
          "fixed-source root must be a unary Steiner node");
    }
  }
  out.topo.SetRoot(root, mode);

  out.edge_len.assign(static_cast<std::size_t>(n), 0.0);
  for (const auto& [id, len] : edges) {
    if (id < 0 || id >= n) {
      return Status::InvalidArgument("edge id out of range");
    }
    out.edge_len[static_cast<std::size_t>(id)] = len;
  }
  if (!locs.empty()) {
    out.locations.assign(static_cast<std::size_t>(n), Point{0, 0});
    for (const auto& [id, p] : locs) {
      if (id < 0 || id >= n) {
        return Status::InvalidArgument("loc id out of range");
      }
      out.locations[static_cast<std::size_t>(id)] = p;
    }
  }
  return out;
}

Status StoreTreeSolution(const TreeSolution& tree, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write " + path);
  out << FormatTreeSolution(tree);
  return out.good() ? Status::Ok()
                    : Status::Internal("write failed for " + path);
}

Result<TreeSolution> LoadTreeSolution(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTreeSolution(buffer.str());
}

}  // namespace lubt
