#include "graph/io.h"

#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "graph/builder.h"
#include "graph/generators.h"

namespace fairbc {

namespace {

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '%' || c == '#';
  }
  return true;
}

// The builder sizes each side as max id + 1 (or the declared count) before
// it sees a single edge, so an id or count past the per-side limit would
// let a one-line file demand gigabytes. Ids lie below the limit, declared
// counts at most at it.
bool ValidVertexId(long long x) { return x >= 0 && x < kMaxSideVertices; }

bool ValidVertexCount(long long x) {
  return x >= 0 && x <= kMaxSideVertices;
}

bool ValidAttrCount(long long x) {
  return x >= 1 && x <= std::numeric_limits<AttrId>::max();
}

}  // namespace

Result<BipartiteGraph> ReadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open edge list: " + path);
  }
  BipartiteGraphBuilder builder;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream iss(line);
    long long u = -1, v = -1;
    if (!(iss >> u >> v) || !ValidVertexId(u) || !ValidVertexId(v)) {
      return Status::CorruptInput("bad edge at " + path + ":" +
                                  std::to_string(line_no));
    }
    builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
  }
  return builder.Build();
}

Result<BipartiteGraph> ReadAttributedGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open graph: " + path);
  }
  std::string line;
  std::size_t line_no = 0;

  // Header.
  long long nu = -1, nv = -1, au = -1, av = -1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("%fairbc", 0) == 0) {
      std::istringstream iss(line.substr(7));
      int version = 0;
      if (!(iss >> version >> nu >> nv >> au >> av) || version != 1) {
        return Status::CorruptInput("bad %fairbc header in " + path);
      }
      break;
    }
    if (!IsCommentOrBlank(line)) {
      return Status::CorruptInput("missing %fairbc header in " + path);
    }
  }
  if (!ValidVertexCount(nu) || !ValidVertexCount(nv) || !ValidAttrCount(au) ||
      !ValidAttrCount(av)) {
    return Status::CorruptInput("missing or invalid %fairbc header in " + path);
  }

  BipartiteGraphBuilder builder(static_cast<VertexId>(nu),
                                static_cast<VertexId>(nv));
  builder.SetNumAttrs(Side::kUpper, static_cast<AttrId>(au));
  builder.SetNumAttrs(Side::kLower, static_cast<AttrId>(av));

  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream iss(line);
    char tag = 0;
    iss >> tag;
    auto bad = [&](const char* what) {
      return Status::CorruptInput(std::string(what) + " at " + path + ":" +
                                  std::to_string(line_no));
    };
    if (tag == 'E') {
      long long u = -1, v = -1;
      if (!(iss >> u >> v) || u < 0 || v < 0 || u >= nu || v >= nv) {
        return bad("bad edge");
      }
      builder.AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
    } else if (tag == 'U' || tag == 'V') {
      long long id = -1, a = -1;
      long long n = tag == 'U' ? nu : nv;
      long long dom = tag == 'U' ? au : av;
      if (!(iss >> id >> a) || id < 0 || id >= n || a < 0 || a >= dom) {
        return bad("bad attribute line");
      }
      builder.SetAttr(tag == 'U' ? Side::kUpper : Side::kLower,
                      static_cast<VertexId>(id), static_cast<AttrId>(a));
    } else {
      return bad("unknown record tag");
    }
  }
  return builder.Build();
}

Status WriteAttributedGraph(const BipartiteGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound("cannot open for writing: " + path);
  }
  out << "%fairbc 1 " << g.NumUpper() << ' ' << g.NumLower() << ' '
      << g.NumAttrs(Side::kUpper) << ' ' << g.NumAttrs(Side::kLower) << "\n";
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    out << "U " << u << ' ' << g.Attr(Side::kUpper, u) << "\n";
  }
  for (VertexId v = 0; v < g.NumLower(); ++v) {
    out << "V " << v << ' ' << g.Attr(Side::kLower, v) << "\n";
  }
  for (VertexId u = 0; u < g.NumUpper(); ++u) {
    for (VertexId v : g.Neighbors(Side::kUpper, u)) {
      out << "E " << u << ' ' << v << "\n";
    }
  }
  if (!out.good()) return Status::Internal("write failed: " + path);
  return Status::OK();
}

}  // namespace fairbc
