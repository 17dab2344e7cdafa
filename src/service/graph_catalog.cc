#include "service/graph_catalog.h"

#include <utility>

#include <sys/stat.h>

#include "common/timer.h"
#include "graph/io.h"
#include "graph/snapshot.h"

namespace fairbc {

namespace {

Status Publish(std::mutex& mu,
               std::map<std::string, std::shared_ptr<const CatalogEntry>>& map,
               const std::string& name, BipartiteGraph graph,
               const std::string& source, double load_seconds,
               std::uint32_t snapshot_version = 0,
               std::uint64_t source_bytes = 0) {
  if (name.empty()) {
    return Status::InvalidArgument("catalog name must be nonempty");
  }
  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->version = GraphFingerprint(graph);
  entry->source = source;
  entry->load_seconds = load_seconds;
  entry->snapshot_version = snapshot_version;
  entry->source_bytes = source_bytes;
  entry->graph = std::move(graph);
  std::lock_guard<std::mutex> lock(mu);
  map[name] = std::move(entry);
  return Status::OK();
}

}  // namespace

Status GraphCatalog::AddGraph(const std::string& name, BipartiteGraph graph,
                              const std::string& source) {
  return Publish(mu_, entries_, name, std::move(graph), source,
                 /*load_seconds=*/0.0);
}

Status GraphCatalog::AddFromFile(const std::string& name,
                                 const std::string& path, Format format) {
  Timer timer;
  std::uint32_t snapshot_version = 0;
  Result<BipartiteGraph> loaded = ReadGraphFile(path, format,
                                                &snapshot_version);
  if (!loaded.ok()) return loaded.status();
  std::uint64_t source_bytes = 0;
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0 && st.st_size >= 0) {
    source_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  return Publish(mu_, entries_, name, std::move(loaded).value(), path,
                 timer.ElapsedSeconds(), snapshot_version, source_bytes);
}

std::shared_ptr<const CatalogEntry> GraphCatalog::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

bool GraphCatalog::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.erase(name) > 0;
}

std::vector<std::shared_ptr<const CatalogEntry>> GraphCatalog::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const CatalogEntry>> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry);
  return out;
}

std::size_t GraphCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Result<BipartiteGraph> ReadGraphFile(const std::string& path,
                                     GraphCatalog::Format format,
                                     std::uint32_t* snapshot_version) {
  return format == GraphCatalog::Format::kSnapshot
             ? ReadSnapshot(path, snapshot_version)
         : format == GraphCatalog::Format::kSnapshotMmap
             ? ReadSnapshotView(path, snapshot_version)
         : format == GraphCatalog::Format::kAttr ? ReadAttributedGraph(path)
                                                 : ReadEdgeList(path);
}

std::optional<GraphCatalog::Format> ParseCatalogFormat(
    const std::string& name) {
  if (name == "snapshot") return GraphCatalog::Format::kSnapshot;
  if (name == "mmap") return GraphCatalog::Format::kSnapshotMmap;
  if (name == "attr") return GraphCatalog::Format::kAttr;
  if (name == "edges") return GraphCatalog::Format::kEdges;
  return std::nullopt;
}

const char* ToString(GraphCatalog::Format format) {
  switch (format) {
    case GraphCatalog::Format::kAttr:
      return "attr";
    case GraphCatalog::Format::kEdges:
      return "edges";
    case GraphCatalog::Format::kSnapshotMmap:
      return "mmap";
    case GraphCatalog::Format::kSnapshot:
      break;
  }
  return "snapshot";
}

}  // namespace fairbc
