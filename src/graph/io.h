#ifndef FAIRBC_GRAPH_IO_H_
#define FAIRBC_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// Text formats for attributed bipartite graphs.
///
/// Edge-list format (KONECT-like; `%`-prefixed comment lines allowed):
///   u v            one edge per line, 0-based ids
///
/// Attributed format, a superset with an explicit header:
///   %fairbc 1 <num_upper> <num_lower> <num_upper_attrs> <num_lower_attrs>
///   U <id> <attr>    attribute assignment, one per upper vertex (optional)
///   V <id> <attr>    attribute assignment, one per lower vertex (optional)
///   E <u> <v>        edge
///
/// Unattributed vertices default to attribute 0. Vertex ids must be
/// below kMaxSideVertices (graph/generators.h), declared vertex counts at
/// most kMaxSideVertices, and attribute counts in [1, 65535]; the readers
/// reject anything else with CorruptInput before allocating for it.

/// Reads a plain `u v` edge list. Vertex counts are inferred from the
/// largest ids; attributes default to 0 with domain sizes 1.
Result<BipartiteGraph> ReadEdgeList(const std::string& path);

/// Reads the attributed `%fairbc` format described above.
Result<BipartiteGraph> ReadAttributedGraph(const std::string& path);

/// Writes the attributed `%fairbc` format; round-trips with
/// ReadAttributedGraph.
Status WriteAttributedGraph(const BipartiteGraph& g, const std::string& path);

}  // namespace fairbc

#endif  // FAIRBC_GRAPH_IO_H_
