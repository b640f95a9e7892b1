#include "server/artifact_store.hpp"

#include <algorithm>
#include <sstream>

#include "dts/printer.hpp"
#include "feature/text_format.hpp"
#include "obs/obs.hpp"
#include "support/strings.hpp"

namespace llhsc::server {

uint64_t fnv_combine(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t delta_module_fingerprint(const delta::DeltaModule& m) {
  std::ostringstream os;
  os << m.name << '\n' << m.when.to_string() << '\n';
  for (const std::string& a : m.after) os << a << ' ';
  os << '\n';
  for (const delta::Operation& op : m.operations) {
    os << delta::to_string(op.kind) << ' ' << op.target << ' '
       << op.property_name << '\n';
    if (op.body != nullptr) os << dts::print_node(*op.body);
  }
  return support::fnv1a64(os.str());
}

// -- Cache<T> -----------------------------------------------------------

namespace {

template <typename T>
bool reusable(const T& /*artifact*/) { return true; }

/// A verdict whose solver work ran out of budget depends on timing, not on
/// its key: it goes to the callers that asked, but is never published.
bool reusable(const CheckArtifact& artifact) {
  return std::none_of(artifact.findings.begin(), artifact.findings.end(),
                      [](const checkers::Finding& f) {
                        return f.kind == checkers::FindingKind::kSolverTimeout;
                      });
}

}  // namespace

template <typename T>
std::shared_ptr<const T> ArtifactStore::Cache<T>::lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

template <typename T>
std::shared_ptr<const T> ArtifactStore::Cache<T>::build_or_wait(
    uint64_t key, const Build& build, size_t capacity, bool& built,
    uint64_t& evictions, const Validate& validate) {
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // A concurrent build may have published (and left building_) between
    // the caller's lookup and here: reuse it rather than building again.
    if (auto entry = entries_.find(key);
        entry != entries_.end() && (!validate || validate(*entry->second))) {
      built = false;
      return entry->second;
    }
    auto it = building_.find(key);
    if (it != building_.end()) {
      // Another worker is already producing this artifact: share its build.
      flight = it->second;
      ready_.wait(lock, [&] { return flight->done; });
      built = false;
      return flight->value;
    }
    flight = std::make_shared<InFlight>();
    building_.emplace(key, flight);
  }

  std::shared_ptr<const T> value;
  try {
    value = build();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    flight->done = true;
    building_.erase(key);
    ready_.notify_all();
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (value != nullptr && reusable(*value)) {
      auto [it, fresh] = entries_.insert_or_assign(key, value);
      (void)it;
      if (fresh) order_.push_back(key);
      while (entries_.size() > capacity && !order_.empty()) {
        uint64_t victim = order_.front();
        order_.pop_front();
        if (victim == key) {
          order_.push_back(victim);  // never evict what we just published
          continue;
        }
        if (entries_.erase(victim) > 0) ++evictions;
      }
    }
    flight->value = value;
    flight->done = true;
    building_.erase(key);
    ready_.notify_all();
  }
  built = true;
  return value;
}

// -- ArtifactStore ------------------------------------------------------

ArtifactStore::ArtifactStore(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

template <typename T>
std::shared_ptr<const T> ArtifactStore::get_or_build(
    Cache<T>& cache, uint64_t key,
    const std::function<std::shared_ptr<const T>()>& build, bool* was_hit,
    uint64_t api::StoreStats::* built_counter) {
  if (auto cached = cache.lookup(key)) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.hits;
    }
    obs::count("store.hit", "store", 1);
    if (was_hit != nullptr) *was_hit = true;
    return cached;
  }
  bool built = false;
  uint64_t evictions = 0;
  auto value = cache.build_or_wait(key, build, capacity_, built, evictions);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.evictions += evictions;
    if (built) {
      ++stats_.misses;
      ++(stats_.*built_counter);
    } else {
      ++stats_.hits;  // piggybacked on another worker's build
    }
  }
  obs::count("store.eviction", "store", static_cast<int64_t>(evictions));
  obs::count(built ? "store.miss" : "store.hit", "store", 1);
  if (was_hit != nullptr) *was_hit = !built;
  return value;
}

std::shared_ptr<const TreeArtifact> ArtifactStore::tree(
    const std::string& source, const std::string& filename,
    dts::SourceManager& sources, bool* was_hit) {
  const uint64_t key =
      support::fnv1a64(source, support::fnv1a64(filename) ^ 0x7472U /*"tr"*/);

  // A cached tree is fresh only if every include it loaded still has the
  // same content — the dependency edges content-addressing alone can't see.
  auto validate = [&](const TreeArtifact& a) {
    for (const auto& [name, hash] : a.includes) {
      auto content = sources.load(name);
      if (!content || support::fnv1a64(*content) != hash) return false;
    }
    return true;
  };

  if (auto cached = trees_.lookup(key); cached != nullptr && validate(*cached)) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.hits;
    }
    obs::count("store.hit", "store", 1);
    if (was_hit != nullptr) *was_hit = true;
    return cached;
  }

  auto build = [&]() -> std::shared_ptr<TreeArtifact> {
    auto artifact = std::make_shared<TreeArtifact>();
    artifact->key = key;
    sources.set_load_observer([&](const std::string& name,
                                  const std::string& content) {
      artifact->includes.emplace_back(name, support::fnv1a64(content));
    });
    support::DiagnosticEngine diags;
    auto parsed = dts::parse_dts(source, filename, sources, diags);
    sources.set_load_observer({});
    artifact->tree = std::move(parsed);
    artifact->diagnostics_text = diags.render();
    artifact->parse_errors = artifact->tree == nullptr || diags.has_errors();
    // The artifact's key folds in every include edge. The cache slot above
    // is addressed by (source, filename) alone, so an include edit re-parses
    // under the same slot — but derived keys (product lines, composed trees,
    // check verdicts) start from artifact->key and must see the new include
    // content, or they would resolve to verdicts computed over the old text.
    for (const auto& [name, hash] : artifact->includes) {
      artifact->key = fnv_combine(support::fnv1a64(name, artifact->key), hash);
    }
    return artifact;
  };

  bool built = false;
  uint64_t evictions = 0;
  auto value =
      trees_.build_or_wait(key, build, capacity_, built, evictions, validate);
  // A waiter shares the builder's parse; its include edges were recorded
  // against the builder's sources, but the content hashes are what matter
  // and both requests supplied the same main source (same key).
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.evictions += evictions;
    if (built) {
      ++stats_.misses;
      ++stats_.tree_parses;
    } else {
      ++stats_.hits;
    }
  }
  obs::count("store.eviction", "store", static_cast<int64_t>(evictions));
  obs::count(built ? "store.miss" : "store.hit", "store", 1);
  if (was_hit != nullptr) *was_hit = !built;
  return value;
}

std::shared_ptr<const DeltaArtifact> ArtifactStore::deltas(
    const std::string& source, const std::string& filename, bool* was_hit) {
  const uint64_t key =
      support::fnv1a64(source, support::fnv1a64(filename) ^ 0x646cU /*"dl"*/);
  return get_or_build<DeltaArtifact>(
      deltas_, key,
      [&]() {
        auto artifact = std::make_shared<DeltaArtifact>();
        artifact->key = key;
        support::DiagnosticEngine diags;
        artifact->modules = delta::parse_deltas(source, filename, diags);
        artifact->module_keys.reserve(artifact->modules.size());
        for (const delta::DeltaModule& m : artifact->modules) {
          artifact->module_keys.push_back(delta_module_fingerprint(m));
        }
        artifact->diagnostics_text = diags.render();
        artifact->parse_errors = diags.has_errors();
        return artifact;
      },
      was_hit, &api::StoreStats::delta_parses);
}

std::shared_ptr<const ModelArtifact> ArtifactStore::model(
    const std::string& source, const std::string& filename, bool* was_hit) {
  const uint64_t key =
      support::fnv1a64(source, support::fnv1a64(filename) ^ 0x666dU /*"fm"*/);
  return get_or_build<ModelArtifact>(
      models_, key,
      [&]() {
        auto artifact = std::make_shared<ModelArtifact>();
        artifact->key = key;
        support::DiagnosticEngine diags;
        auto model = feature::parse_model(source, filename, diags);
        if (model) {
          artifact->model =
              std::make_shared<const feature::FeatureModel>(std::move(*model));
        }
        artifact->diagnostics_text = diags.render();
        artifact->parse_errors = artifact->model == nullptr || diags.has_errors();
        return artifact;
      },
      was_hit, &api::StoreStats::model_parses);
}

std::shared_ptr<const ProductLineArtifact> ArtifactStore::product_line(
    const TreeArtifact& core, const std::shared_ptr<const DeltaArtifact>& deltas,
    bool* was_hit) {
  const uint64_t key = fnv_combine(fnv_combine(0xcbf29ce484222325ull, core.key),
                                   deltas->key);
  return get_or_build<ProductLineArtifact>(
      product_lines_, key,
      [&]() -> std::shared_ptr<ProductLineArtifact> {
        if (core.tree == nullptr) return nullptr;
        auto artifact = std::make_shared<ProductLineArtifact>();
        artifact->key = key;
        artifact->product_line = std::make_shared<const delta::ProductLine>(
            core.tree, std::shared_ptr<const std::vector<delta::DeltaModule>>(
                           deltas, &deltas->modules));
        return artifact;
      },
      was_hit, &api::StoreStats::product_line_builds);
}

std::shared_ptr<const ComposedArtifact> ArtifactStore::composed(
    uint64_t key, const std::function<ComposedArtifact()>& build,
    bool* was_hit) {
  return get_or_build<ComposedArtifact>(
      composed_, key,
      [&]() {
        return std::make_shared<const ComposedArtifact>(build());
      },
      was_hit, &api::StoreStats::derives);
}

std::shared_ptr<const CheckArtifact> ArtifactStore::unit_check(
    uint64_t key, const std::function<CheckArtifact()>& build, bool* was_hit) {
  return get_or_build<CheckArtifact>(
      checks_, key,
      [&]() { return std::make_shared<const CheckArtifact>(build()); },
      was_hit, &api::StoreStats::unit_checks);
}

std::shared_ptr<const CheckArtifact> ArtifactStore::cross_check(
    uint64_t key, const std::function<CheckArtifact()>& build, bool* was_hit) {
  return get_or_build<CheckArtifact>(
      checks_, key,
      [&]() { return std::make_shared<const CheckArtifact>(build()); },
      was_hit, &api::StoreStats::cross_checks);
}

std::shared_ptr<const CheckArtifact> ArtifactStore::lifted_check(
    uint64_t key, const std::function<CheckArtifact()>& build, bool* was_hit) {
  return get_or_build<CheckArtifact>(
      checks_, key,
      [&]() { return std::make_shared<const CheckArtifact>(build()); },
      was_hit, &api::StoreStats::lifted_checks);
}

std::shared_ptr<const GraphArtifact> ArtifactStore::graph(
    uint64_t tree_key, const std::shared_ptr<const dts::Tree>& source,
    bool* was_hit, const checkers::crossref::AnalysisContext* ctx) {
  // Salted so a graph key can never collide with the unit-check key derived
  // from the same tree key.
  const uint64_t key = fnv_combine(tree_key, 0x67726170U /*"grap"*/);
  return get_or_build<GraphArtifact>(
      graphs_, key,
      [&]() -> std::shared_ptr<GraphArtifact> {
        if (source == nullptr) return nullptr;
        auto artifact = std::make_shared<GraphArtifact>();
        artifact->key = key;
        artifact->graph =
            std::make_shared<const checkers::graph::DeviceGraph>(
                ctx != nullptr ? checkers::graph::DeviceGraph::build(*ctx)
                               : checkers::graph::DeviceGraph::build(*source));
        artifact->source = source;
        return artifact;
      },
      was_hit, &api::StoreStats::graph_builds);
}

std::shared_ptr<const AllocationArtifact> ArtifactStore::allocation(
    uint64_t key, const std::function<AllocationArtifact()>& build,
    bool* was_hit) {
  return get_or_build<AllocationArtifact>(
      allocations_, key,
      [&]() { return std::make_shared<const AllocationArtifact>(build()); },
      was_hit, &api::StoreStats::unit_checks);
}

api::StoreStats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace llhsc::server
