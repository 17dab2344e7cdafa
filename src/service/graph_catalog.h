#ifndef FAIRBC_SERVICE_GRAPH_CATALOG_H_
#define FAIRBC_SERVICE_GRAPH_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/bipartite_graph.h"

namespace fairbc {

/// One named, immutable graph snapshot resident in a GraphCatalog.
/// Entries are handed out as shared_ptr<const>, so queries keep the graph
/// alive (and unchanged) even if the catalog replaces or removes the name
/// mid-flight — replacement publishes a *new* entry, it never mutates an
/// old one. This immutability is what lets QueryExecutor run many queries
/// against one entry with no per-read locking.
struct CatalogEntry {
  std::string name;
  /// Content fingerprint (GraphFingerprint): equal versions mean equal
  /// CSR bytes. ResultCache keys embed this, so cached summaries can
  /// never be served for different content under a reused name.
  std::uint64_t version = 0;
  std::string source;  ///< originating path, or "<memory>".
  double load_seconds = 0.0;
  /// Snapshot format version of the source file (2 raw, 3 compressed);
  /// 0 when the entry did not come from a snapshot.
  std::uint32_t snapshot_version = 0;
  /// On-disk size of the source file; 0 for in-memory/generated entries.
  std::uint64_t source_bytes = 0;
  BipartiteGraph graph;
};

/// Thread-safe registry of named immutable graphs. The catalog is the
/// unit of preloading for the service front end (`fairbc_server load`)
/// and — per the ROADMAP NUMA note — the natural unit for per-socket
/// placement once workers are pinned.
class GraphCatalog {
 public:
  enum class Format {
    kSnapshot,      ///< binary snapshot (graph/snapshot.h) — the fast path.
    kSnapshotMmap,  ///< snapshot mapped in place (ReadSnapshotView): the
                    ///< entry's graph is a read-only view over the file's
                    ///< pages, so the load allocates nothing and the entry
                    ///< is the natural unit for per-socket page placement.
    kAttr,          ///< %fairbc attributed text format.
    kEdges,         ///< plain `u v` edge list.
  };

  GraphCatalog() = default;
  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Registers `graph` under `name`, replacing any existing entry (the
  /// old entry stays valid for in-flight holders). Empty names are
  /// rejected.
  Status AddGraph(const std::string& name, BipartiteGraph graph,
                  const std::string& source = "<memory>");

  /// Loads `path` in `format` and registers it; the entry records the
  /// wall-clock load time (snapshot vs text parse comparisons).
  Status AddFromFile(const std::string& name, const std::string& path,
                     Format format);

  /// The current entry for `name`, or nullptr when absent.
  std::shared_ptr<const CatalogEntry> Get(const std::string& name) const;

  /// Removes `name`; returns whether it existed.
  bool Remove(const std::string& name);

  /// All current entries, ordered by name.
  std::vector<std::shared_ptr<const CatalogEntry>> List() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const CatalogEntry>> entries_;
};

/// Reads `path` in `format`: the one format→reader dispatch behind
/// AddFromFile and fairbc_cli's --format. For the snapshot formats,
/// `snapshot_version` (when given) receives the version the load parsed;
/// text formats leave it untouched.
Result<BipartiteGraph> ReadGraphFile(const std::string& path,
                                     GraphCatalog::Format format,
                                     std::uint32_t* snapshot_version = nullptr);

/// Wire-name parser/printer for Format ("snapshot" / "mmap" / "attr" /
/// "edges").
std::optional<GraphCatalog::Format> ParseCatalogFormat(const std::string& name);
const char* ToString(GraphCatalog::Format format);

}  // namespace fairbc

#endif  // FAIRBC_SERVICE_GRAPH_CATALOG_H_
