// Content-addressed artifact store — the memory of the llhscd check daemon.
// Every expensive pipeline product (parsed dts::Tree, parsed delta modules,
// parsed feature model, product line, composed per-unit tree, per-unit check
// verdict, allocation verdict) is cached under an FNV-1a key derived from
// the *content* of its transitive inputs, so invalidation needs no clocks or
// generation counters: change any input byte and the key changes with it.
//
// Dependency edges are explicit where content alone cannot prove freshness:
// a TreeArtifact records the (include-name, content-hash) pairs its parse
// loaded, and a lookup revalidates each against the request's SourceManager
// — an edited .dtsi invalidates every tree that included it even though the
// main source text is unchanged. The re-parse happens under the same
// (source, filename) cache slot, but the published artifact's *key* folds
// the include hashes in, so it changes with the include content. Derived
// artifacts (composed trees, check verdicts) embed their inputs' keys in
// their own key, so an include edit propagates to every downstream verdict
// by construction — never a stale verdict served over a fresh parse.
//
// Keys are 64-bit FNV-1a, a deliberate tradeoff: the store is a per-process
// cache over one editing session's inputs, so the birthday bound (~2^32
// distinct inputs before a collision is likely) is far beyond any real
// workload — but a collision *would* silently serve another input's
// parse/verdict, with no detection path. If this store ever backs a shared
// or persistent service, widen the keys (e.g. two independently-seeded FNV
// streams) or verify source text on hit before trusting the arithmetic.
//
// Concurrency: every public method is thread-safe. A get-or-build on a key
// another thread is already building *waits for that build* instead of
// duplicating it (per-key in-flight latch), so n concurrent identical
// requests cost one parse/derive/check. Values are shared_ptr<const ...>:
// immutable after publication, safe to read from any number of workers.
//
// Capacity is bounded per artifact class with FIFO eviction; an eviction is
// a counter, never an error (the next request rebuilds).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/llhsc.hpp"
#include "checkers/battery.hpp"
#include "checkers/finding.hpp"
#include "checkers/graph/graph.hpp"
#include "delta/delta.hpp"
#include "dts/parser.hpp"
#include "dts/tree.hpp"
#include "feature/model.hpp"

namespace llhsc::server {

/// One parsed DTS with its include dependency edges.
struct TreeArtifact {
  /// Effective content key: fnv(main source, filename) folded with every
  /// include's (name, content-hash) edge — changes when any transitive
  /// input byte changes, so keys derived from it inherit include freshness.
  uint64_t key = 0;
  std::shared_ptr<const dts::Tree> tree;  // null when the parse failed hard
  std::string diagnostics_text;           // full render of the parse diags
  bool parse_errors = false;
  /// (include name, fnv1a64 of content) for every /include/ the parse
  /// loaded; revalidated on lookup.
  std::vector<std::pair<std::string, uint64_t>> includes;
};

/// Parsed delta modules plus a canonical per-module fingerprint, so a
/// composed tree can be keyed by exactly the modules it applies — editing
/// one module leaves every product that does not activate it untouched.
struct DeltaArtifact {
  uint64_t key = 0;
  std::vector<delta::DeltaModule> modules;
  std::vector<uint64_t> module_keys;  // parallel to `modules`
  std::string diagnostics_text;
  bool parse_errors = false;
};

struct ModelArtifact {
  uint64_t key = 0;
  std::shared_ptr<const feature::FeatureModel> model;
  std::string diagnostics_text;
  bool parse_errors = false;
};

struct ProductLineArtifact {
  uint64_t key = 0;  // fnv(core key, deltas key)
  std::shared_ptr<const delta::ProductLine> product_line;
};

/// One derived (core + active deltas) tree.
struct ComposedArtifact {
  uint64_t key = 0;  // fnv(core key, active module keys in application order)
  std::shared_ptr<const dts::Tree> tree;
  std::string diagnostics_text;
  bool derive_errors = false;
};

/// The device-graph IR of one tree (checkers/graph/graph.hpp), keyed by the
/// tree's content key alone — the graph is option-independent, so every
/// option set over the same tree shares one build. The graph's GraphNode
/// entries alias the source tree's nodes; `source` pins that tree alive for
/// the artifact's lifetime.
struct GraphArtifact {
  uint64_t key = 0;  // the tree/composed key, graph-salted
  std::shared_ptr<const checkers::graph::DeviceGraph> graph;
  std::shared_ptr<const dts::Tree> source;
};

/// The verdict of one checker run over one tree under one option set, with
/// the run's semantic-stage counters. A verdict with a solver-timeout
/// finding is never published for reuse.
struct CheckArtifact : checkers::SemanticCounters {
  uint64_t key = 0;  // fnv(tree/composed key, options fingerprint)
  checkers::Findings findings;
  /// Warnings reported beside the findings (the lifted engine's
  /// delta-order warnings), so a store hit replays the same stderr bytes.
  std::string diagnostics_text{};
};

struct AllocationArtifact {
  uint64_t key = 0;  // fnv(model key, exclusive set, VM feature sets, backend)
  checkers::Findings findings;
};

/// Canonical fingerprint of one delta module (name, when, after, and every
/// operation with its printed body). Stable across processes: no pointer or
/// arena identity leaks into the text.
[[nodiscard]] uint64_t delta_module_fingerprint(const delta::DeltaModule& m);

/// Mixes a 64-bit value into an FNV-1a state byte-by-byte — the glue for
/// deriving composite keys from already-hashed inputs.
[[nodiscard]] uint64_t fnv_combine(uint64_t h, uint64_t v);

class ArtifactStore {
 public:
  /// `capacity` bounds each artifact class independently (FIFO eviction).
  explicit ArtifactStore(size_t capacity = 512);

  /// Content-addressed parse. `sources` must already carry the request's
  /// include environment (in-memory files and/or base directory); the
  /// returned artifact's include edges were validated against it.
  /// `was_hit` (optional) reports whether this call reused a cached parse.
  std::shared_ptr<const TreeArtifact> tree(const std::string& source,
                                           const std::string& filename,
                                           dts::SourceManager& sources,
                                           bool* was_hit = nullptr);

  std::shared_ptr<const DeltaArtifact> deltas(const std::string& source,
                                              const std::string& filename,
                                              bool* was_hit = nullptr);

  std::shared_ptr<const ModelArtifact> model(const std::string& source,
                                             const std::string& filename,
                                             bool* was_hit = nullptr);

  /// A ProductLine over a cached core tree + delta artifact, built once per
  /// (core, deltas) pair. It copies neither: it shares the core's tree and
  /// aliases the delta artifact's modules, which keeps both alive.
  std::shared_ptr<const ProductLineArtifact> product_line(
      const TreeArtifact& core, const std::shared_ptr<const DeltaArtifact>& deltas,
      bool* was_hit = nullptr);

  /// Get-or-build for derived artifacts: the builder runs only on a miss,
  /// and concurrent callers with the same key share one build.
  std::shared_ptr<const ComposedArtifact> composed(
      uint64_t key, const std::function<ComposedArtifact()>& build,
      bool* was_hit = nullptr);
  std::shared_ptr<const CheckArtifact> unit_check(
      uint64_t key, const std::function<CheckArtifact()>& build,
      bool* was_hit = nullptr);
  /// A cross-unit verdict (the session's exclusive-provider analysis). Same
  /// cache as unit_check, but counted as `cross_checks` so the per-unit
  /// incrementality evidence (`unit_checks`) stays a pure per-unit count.
  std::shared_ptr<const CheckArtifact> cross_check(
      uint64_t key, const std::function<CheckArtifact()>& build,
      bool* was_hit = nullptr);
  /// A family-based lifted verdict (src/lift): one analysis covers every
  /// configuration, cached under the composed family key (core + every
  /// delta module + model + options). Same cache as unit_check, counted as
  /// `lifted_checks`.
  std::shared_ptr<const CheckArtifact> lifted_check(
      uint64_t key, const std::function<CheckArtifact()>& build,
      bool* was_hit = nullptr);
  /// Builds (or reuses) the device graph of the tree whose content key is
  /// `tree_key`, keeping `source` alive alongside it. A build reads `ctx`,
  /// the check's analysis context of `source`, when the caller has one.
  std::shared_ptr<const GraphArtifact> graph(
      uint64_t tree_key, const std::shared_ptr<const dts::Tree>& source,
      bool* was_hit = nullptr,
      const checkers::crossref::AnalysisContext* ctx = nullptr);
  std::shared_ptr<const AllocationArtifact> allocation(
      uint64_t key, const std::function<AllocationArtifact()>& build,
      bool* was_hit = nullptr);

  [[nodiscard]] api::StoreStats stats() const;

 private:
  template <typename T>
  class Cache {
   public:
    using Build = std::function<std::shared_ptr<const T>()>;
    /// Whether a published value may still be reused (the tree cache's
    /// include revalidation); null accepts every published value. Runs
    /// under the cache lock, so it must not re-enter the store.
    using Validate = std::function<bool(const T&)>;

    /// The published value for `key`, or null. Never blocks on builds.
    std::shared_ptr<const T> lookup(uint64_t key);

    /// Runs `build` for `key` and publishes the result — unless a value
    /// `validate` accepts was published since the caller's lookup, or
    /// another thread is already building the same key; then this returns
    /// that value, waiting for the build if need be. `built` reports
    /// whether *this* call executed the builder. Publishing replaces any
    /// stale entry under the key and bumps `evictions` when the capacity
    /// bound pushes an old key out.
    std::shared_ptr<const T> build_or_wait(uint64_t key, const Build& build,
                                           size_t capacity, bool& built,
                                           uint64_t& evictions,
                                           const Validate& validate = {});

   private:
    struct InFlight {
      std::shared_ptr<const T> value;
      bool done = false;
    };
    std::mutex mutex_;
    std::condition_variable ready_;
    std::unordered_map<uint64_t, std::shared_ptr<const T>> entries_;
    std::unordered_map<uint64_t, std::shared_ptr<InFlight>> building_;
    std::deque<uint64_t> order_;  // FIFO eviction
  };

  /// lookup -> hit, else build_or_wait; folds the outcome into stats_.
  template <typename T>
  std::shared_ptr<const T> get_or_build(
      Cache<T>& cache, uint64_t key,
      const std::function<std::shared_ptr<const T>()>& build, bool* was_hit,
      uint64_t api::StoreStats::* built_counter);

  size_t capacity_;
  Cache<TreeArtifact> trees_;
  Cache<DeltaArtifact> deltas_;
  Cache<ModelArtifact> models_;
  Cache<ProductLineArtifact> product_lines_;
  Cache<ComposedArtifact> composed_;
  Cache<CheckArtifact> checks_;
  Cache<GraphArtifact> graphs_;
  Cache<AllocationArtifact> allocations_;

  mutable std::mutex stats_mutex_;
  api::StoreStats stats_;
};

}  // namespace llhsc::server
