// Reference-rule property suite. Each seed draws a board of providers
// (#clock-cells, #gpio-cells, #reset-cells and #interrupt-cells of 0-3, or
// none) and consumers whose phandle+args and `interrupts` cells are
// written raw: valid tuples, dangling values, the 0 and 0xffffffff overlay
// placeholders, /bits/ 64 phandle cells, truncated tails, and interrupt
// parents that are explicit, inherited from a bus, implicit (the nearest
// interrupt-controller ancestor) or dangling. When a provider sits on a
// placeholder value, a second provider is named only after that
// placeholder, where decoding stops. A test-local oracle decodes
// those raw cells from the generator's own model — never from llhsc's
// device graph — and predicts every crossref finding plus every
// graph-cells-arity finding, in order, as (rule, subject, property,
// message, other_subject).
//
// Also pins the one input where the old second decoder disagreed: a
// placeholder phandle cell ends the decoding of its property, so a
// provider referenced only past it is an orphan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "checkers/crossref/rules.hpp"
#include "checkers/graph/rules.hpp"
#include "dts/parser.hpp"

namespace llhsc::checkers {
namespace {

using Key = std::tuple<std::string, std::string, std::string, std::string,
                       std::string>;  // rule, subject, property, message, other

std::string describe(const std::vector<Key>& keys) {
  std::ostringstream os;
  for (const auto& [rule, subject, property, message, other] : keys) {
    os << "  [" << rule << "] " << subject << " (" << property << "): "
       << message;
    if (!other.empty()) os << " <" << other << ">";
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// The generator's model: nodes in pre-order, properties in written order.
// ---------------------------------------------------------------------------
struct GenProp {
  std::string name;
  std::vector<uint64_t> cells;  // empty = boolean property
  bool bits64 = false;          // written as /bits/ 64 <...>
};

struct GenNode {
  std::string name;
  int parent = -1;  // index of the parent; -1 = child of the root
  std::string path;
  std::vector<GenProp> props;

  [[nodiscard]] const GenProp* find(const std::string& prop) const {
    for (const GenProp& p : props) {
      if (p.name == prop) return &p;
    }
    return nullptr;
  }
  /// The u32 the checkers read from a one-cell property.
  [[nodiscard]] std::optional<uint32_t> u32(const std::string& prop) const {
    const GenProp* p = find(prop);
    if (p == nullptr || p->cells.size() != 1 || p->cells[0] > UINT32_MAX) {
      return std::nullopt;
    }
    return static_cast<uint32_t>(p->cells[0]);
  }
};

struct Board {
  std::vector<GenNode> nodes;  // pre-order
  std::string text;
};

/// A consumer property and the provider-side cells property typing it.
struct ConsumerSpec {
  const char* property;
  const char* cells;
  const char* kind;  // graph EdgeKind name
};
constexpr ConsumerSpec kConsumers[] = {
    {"clocks", "#clock-cells", "clock"},
    {"enable-gpios", "#gpio-cells", "gpio"},
    {"resets", "#reset-cells", "reset"},
    {"interrupts-extended", "#interrupt-cells", "interrupt"},
};
constexpr const char* kCellsProps[] = {"#clock-cells", "#gpio-cells",
                                       "#reset-cells"};

class Generator {
 public:
  explicit Generator(uint32_t seed) : rng_(seed) {}

  Board draw() {
    // Providers first: distinct phandles, sometimes one on a placeholder
    // value (a node dtc would never emit, but a hand-written tree can).
    std::vector<uint32_t> values;
    for (uint32_t v = 1; v <= 40; ++v) values.push_back(v);
    std::shuffle(values.begin(), values.end(), rng_);
    size_t next_value = 0;
    auto fresh_phandle = [&] { return values[next_value++]; };

    const int n_providers = pick(2, 5);
    for (int i = 0; i < n_providers; ++i) {
      GenNode n;
      n.name = "prov" + std::to_string(i);
      uint32_t ph = fresh_phandle();
      if (coin(4)) ph = coin(2) ? 0 : 0xffffffffu;
      if (ph == 0 || ph == 0xffffffffu) {
        if (placeholder_used_.count(ph) > 0) ph = fresh_phandle();
        placeholder_used_.insert(ph);
      }
      n.props.push_back({"phandle", {ph}});
      const char* cells = kCellsProps[pick(0, 2)];
      if (!coin(6)) n.props.push_back({cells, {uint64_t(pick(0, 3))}});
      if ((ph == 0 || ph == 0xffffffffu) && n.props.size() == 2) {
        past_placeholder(ph, cells, n.props[1].cells[0], fresh_phandle());
      }
      add(std::move(n), -1);
      targets_.push_back(ph);
    }
    const int n_controllers = pick(1, 3);
    for (int i = 0; i < n_controllers; ++i) {
      GenNode n;
      n.name = "intc" + std::to_string(i);
      const uint32_t ph = fresh_phandle();
      n.props.push_back({"phandle", {ph}});
      n.props.push_back({"interrupt-controller", {}});
      if (!coin(5)) {
        n.props.push_back({"#interrupt-cells", {uint64_t(pick(0, 3))}});
      }
      const int self = add(std::move(n), -1);
      targets_.push_back(ph);
      controllers_.push_back({self, ph});
    }

    // Consumers at the root, under buses that pass an interrupt-parent
    // down, and under interrupt controllers (the implicit parent).
    const int n_consumers = pick(3, 8);
    for (int i = 0; i < n_consumers; ++i) {
      int parent = -1;
      const int where = pick(0, 3);
      if (where == 1) {
        GenNode bus;
        bus.name = "bus" + std::to_string(i);
        bus.props.push_back({"interrupt-parent", {interrupt_parent_value()}});
        parent = add(std::move(bus), -1);
      } else if (where == 2) {
        parent = controllers_[pick(0, int(controllers_.size()) - 1)].first;
      }
      GenNode dev;
      dev.name = "dev" + std::to_string(i);
      for (const ConsumerSpec& spec : kConsumers) {
        if (coin(2)) continue;
        dev.props.push_back(consumer_property(spec));
      }
      if (coin(2)) {
        if (where != 1 && coin(2)) {
          dev.props.push_back(
              {"interrupt-parent", {interrupt_parent_value()}});
        }
        std::vector<uint64_t> irq;
        const int n = pick(1, 7);
        for (int k = 0; k < n; ++k) irq.push_back(uint64_t(pick(0, 31)));
        dev.props.push_back({"interrupts", irq});
      }
      add(std::move(dev), parent);
    }
    for (GenNode& n : late_) add(std::move(n), -1);
    return render();
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  bool coin(int one_in) { return pick(1, one_in) == 1; }

  int add(GenNode n, int parent) {
    n.parent = parent;
    nodes_.push_back(std::move(n));
    return int(nodes_.size()) - 1;
  }

  /// A provider named only after a placeholder entry that a node does
  /// carry (`holder_cells` of that node): decoding stops at the placeholder,
  /// so the provider is an orphan.
  void past_placeholder(uint32_t placeholder, const char* cells,
                        uint64_t holder_cells, uint32_t lone_ph) {
    const ConsumerSpec* spec = nullptr;
    for (const ConsumerSpec& s : kConsumers) {
      if (std::string(s.cells) == cells) spec = &s;
    }
    GenNode lone;
    lone.name = "lone" + std::to_string(late_.size());
    lone.props.push_back({"phandle", {lone_ph}});
    lone.props.push_back({cells, {0}});
    GenNode dev;
    dev.name = "pdev" + std::to_string(late_.size());
    GenProp ref{spec->property, {placeholder}};
    for (uint64_t a = 0; a < holder_cells; ++a) ref.cells.push_back(a);
    ref.cells.push_back(lone_ph);
    dev.props.push_back(std::move(ref));
    late_.push_back(std::move(lone));
    late_.push_back(std::move(dev));
  }

  uint32_t interrupt_parent_value() {
    if (coin(5)) return 900 + uint32_t(pick(0, 9));  // dangling
    if (coin(4)) return targets_[pick(0, int(targets_.size()) - 1)];
    return controllers_[pick(0, int(controllers_.size()) - 1)].second;
  }

  /// One phandle+args property: 1-3 entries naming random providers (any
  /// cells kind, so some lack the matching #*-cells) with 0-3 argument
  /// cells each; sometimes a dangling or placeholder cell, sometimes a
  /// /bits/ 64 property whose phandle cells carry high bits.
  GenProp consumer_property(const ConsumerSpec& spec) {
    GenProp p;
    p.name = spec.property;
    p.bits64 = coin(8);
    const int entries = pick(1, 3);
    for (int e = 0; e < entries; ++e) {
      uint64_t ph = targets_[pick(0, int(targets_.size()) - 1)];
      const int roll = pick(1, 10);
      if (roll == 1) ph = 700 + uint64_t(pick(0, 9));  // dangling
      if (roll == 2) ph = 0;
      if (roll == 3) ph = 0xffffffffu;
      if (p.bits64 && coin(2)) ph |= uint64_t(pick(1, 3)) << 32;
      p.cells.push_back(ph);
      const int args = pick(0, 3);
      for (int a = 0; a < args; ++a) p.cells.push_back(uint64_t(pick(0, 9)));
    }
    return p;
  }

  Board render() {
    Board b;
    b.nodes = nodes_;
    // Pre-order: a node's children follow it, in insertion order.
    std::vector<std::vector<int>> children(nodes_.size());
    std::vector<int> roots;
    for (int i = 0; i < int(nodes_.size()); ++i) {
      (nodes_[i].parent < 0 ? roots : children[nodes_[i].parent]).push_back(i);
    }
    std::ostringstream os;
    os << "/dts-v1/;\n/ {\n";
    std::vector<GenNode> ordered;
    std::function<void(int, const std::string&, int)> emit =
        [&](int i, const std::string& parent_path, int indent) {
          GenNode n = nodes_[i];
          n.path = parent_path + "/" + n.name;
          const std::string pad(size_t(indent) * 4, ' ');
          os << pad << n.name << " {\n";
          for (const GenProp& p : n.props) {
            os << pad << "    " << p.name;
            if (!p.cells.empty()) {
              os << " = " << (p.bits64 ? "/bits/ 64 <" : "<");
              for (size_t k = 0; k < p.cells.size(); ++k) {
                os << (k == 0 ? "" : " ") << "0x" << std::hex << p.cells[k]
                   << std::dec;
              }
              os << ">";
            }
            os << ";\n";
          }
          ordered.push_back(n);
          for (int c : children[i]) emit(c, n.path, indent + 1);
          os << pad << "};\n";
        };
    for (int r : roots) emit(r, "", 1);
    os << "};\n";
    // Re-index parents into pre-order positions.
    std::map<std::string, int> index_of_path;
    for (int i = 0; i < int(ordered.size()); ++i) {
      index_of_path[ordered[i].path] = i;
    }
    for (GenNode& n : ordered) {
      const size_t slash = n.path.rfind('/');
      const std::string parent = n.path.substr(0, slash);
      n.parent = parent.empty() ? -1 : index_of_path.at(parent);
    }
    b.nodes = std::move(ordered);
    b.text = os.str();
    return b;
  }

  std::mt19937 rng_;
  std::vector<GenNode> nodes_;
  std::vector<uint32_t> targets_;
  std::vector<std::pair<int, uint32_t>> controllers_;  // (node, phandle)
  std::set<uint32_t> placeholder_used_;
  std::vector<GenNode> late_;  // past_placeholder() nodes, added last
};

// ---------------------------------------------------------------------------
// The oracle: decodes the generator's raw cells directly.
// ---------------------------------------------------------------------------
struct Expected {
  std::vector<Key> crossref;
  std::vector<Key> cells_arity;  // graph-cells-arity, in edge order
};

bool is_placeholder(uint64_t cell) { return cell == 0 || cell == 0xffffffffu; }

Expected oracle(const Board& b) {
  std::map<uint32_t, int> by_phandle;  // first holder in document order
  for (int i = 0; i < int(b.nodes.size()); ++i) {
    if (auto v = b.nodes[i].u32("phandle")) by_phandle.emplace(*v, i);
  }
  auto holder = [&](uint32_t v) -> int {
    auto it = by_phandle.find(v);
    return it == by_phandle.end() ? -1 : it->second;
  };

  Expected out;
  std::vector<Key> args_findings, irq_findings;
  std::set<uint32_t> referenced;

  for (const GenNode& n : b.nodes) {
    for (const GenProp& p : n.props) {
      const ConsumerSpec* spec = nullptr;
      for (const ConsumerSpec& s : kConsumers) {
        if (p.name == s.property) spec = &s;
      }
      if (spec == nullptr || p.cells.empty()) continue;
      const std::string cells_prop = spec->cells;
      size_t i = 0, entry = 0;
      while (i < p.cells.size()) {
        const uint64_t ph = p.cells[i];
        referenced.insert(static_cast<uint32_t>(ph));
        const std::string where =
            "entry " + std::to_string(entry) + " of '" + p.name + "'";
        const int prov =
            is_placeholder(ph) ? -1 : holder(static_cast<uint32_t>(ph));
        if (prov < 0) {
          args_findings.push_back({"phandle-dangling", n.path, p.name,
                                   where + " references phandle " +
                                       std::to_string(ph) +
                                       ", which no node carries",
                                   ""});
          break;
        }
        const std::string& prov_path = b.nodes[prov].path;
        const auto argc = b.nodes[prov].u32(cells_prop);
        if (!argc) {
          args_findings.push_back({"provider-missing-cells", n.path, p.name,
                                   where + " references " + prov_path +
                                       ", which declares no " + cells_prop,
                                   ""});
          break;
        }
        const size_t remain = p.cells.size() - i - 1;
        if (*argc > remain) {
          args_findings.push_back(
              {"phandle-args-arity", n.path, p.name,
               where + " needs " + std::to_string(*argc) +
                   " argument cell(s) (" + cells_prop + " of " + prov_path +
                   ") but only " + std::to_string(remain) + " remain",
               prov_path});
          out.cells_arity.push_back(
              {"graph-cells-arity", n.path, p.name,
               std::string(spec->kind) + " edge ('" + p.name + "' entry " +
                   std::to_string(entry) + ") violates the " +
                   std::to_string(*argc) + "-cell contract of provider " +
                   prov_path,
               prov_path});
          break;
        }
        i += 1 + *argc;
        ++entry;
      }
    }

    // interrupt-parent-dangling, where the property is written.
    if (auto ip = n.u32("interrupt-parent")) {
      referenced.insert(*ip);
      if (!is_placeholder(*ip) && holder(*ip) < 0) {
        irq_findings.push_back({"interrupt-parent-dangling", n.path,
                                "interrupt-parent",
                                "interrupt-parent references phandle " +
                                    std::to_string(*ip) +
                                    ", which no node carries",
                                ""});
      }
    }
    const GenProp* irq = n.find("interrupts");
    if (irq == nullptr || irq->cells.empty()) continue;
    // Effective provider: the nearest declared interrupt-parent (self or
    // ancestor), else the nearest interrupt-controller ancestor.
    int prov = -1;
    bool declared = false;
    for (const GenNode* cur = &n; cur != nullptr;
         cur = cur->parent < 0 ? nullptr : &b.nodes[cur->parent]) {
      if (auto ip = cur->u32("interrupt-parent")) {
        declared = true;
        prov = holder(*ip);
        break;
      }
    }
    if (!declared) {
      for (int a = n.parent; a >= 0; a = b.nodes[a].parent) {
        if (b.nodes[a].find("interrupt-controller") != nullptr) {
          prov = a;
          break;
        }
      }
    }
    if (prov < 0) continue;
    const std::string& prov_path = b.nodes[prov].path;
    const auto want = b.nodes[prov].u32("#interrupt-cells");
    if (!want || *want == 0) {
      irq_findings.push_back({"interrupt-provider-missing-cells", n.path,
                              "interrupts",
                              "interrupt provider " + prov_path +
                                  " declares no usable #interrupt-cells",
                              prov_path});
      continue;
    }
    const size_t total = irq->cells.size();
    if (total % *want != 0) {
      irq_findings.push_back(
          {"interrupt-cells-arity", n.path, "interrupts",
           "interrupts has " + std::to_string(total) +
               " cell(s), not a multiple of #interrupt-cells=" +
               std::to_string(*want) + " of " + prov_path,
           prov_path});
      out.cells_arity.push_back(
          {"graph-cells-arity", n.path, "interrupts",
           "interrupt edge ('interrupts' entry " +
               std::to_string(total / *want) + ") violates the " +
               std::to_string(*want) + "-cell contract of provider " +
               prov_path,
           prov_path});
    }
  }

  // provider-orphan: a phandle+args provider no decoded entry and no
  // interrupt-parent names.
  std::vector<Key> orphans;
  for (const GenNode& n : b.nodes) {
    const GenProp* decl = nullptr;
    for (const crossref::PhandleArgsSpec& spec :
         crossref::phandle_args_specs()) {
      if (spec.cells_property == "#interrupt-cells") continue;
      if ((decl = n.find(std::string(spec.cells_property))) != nullptr) break;
    }
    if (decl == nullptr) continue;
    const auto ph = n.u32("phandle");
    if (ph && referenced.count(*ph) > 0) continue;
    orphans.push_back({"provider-orphan", n.path, decl->name,
                       "declares " + decl->name +
                           " but no phandle reference reaches this provider",
                       ""});
  }

  // Rule order of CrossRefChecker::check; the generator seeds no duplicate
  // phandle, interrupt cycle or reg.
  for (auto* part : {&args_findings, &irq_findings, &orphans}) {
    out.crossref.insert(out.crossref.end(), part->begin(), part->end());
  }
  return out;
}

std::vector<Key> keys_of(const Findings& fs, std::string_view only_rule = {}) {
  std::vector<Key> out;
  for (const Finding& f : fs) {
    if (!only_rule.empty() && f.rule_id() != only_rule) continue;
    out.push_back({std::string(f.rule_id()), f.subject, f.property, f.message,
                   f.other_subject});
  }
  return out;
}

std::unique_ptr<dts::Tree> parse(const Board& b) {
  support::DiagnosticEngine de;
  auto tree = dts::parse_dts(b.text, "board.dts", de);
  EXPECT_FALSE(de.has_errors()) << de.render() << b.text;
  return tree;
}

class RandomReferences : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomReferences, FindingsMatchTheRawCellOracle) {
  const Board board = Generator(GetParam()).draw();
  auto tree = parse(board);
  ASSERT_NE(tree, nullptr);
  const Expected want = oracle(board);

  const crossref::AnalysisContext ctx(*tree);
  const graph::DeviceGraph g = graph::DeviceGraph::build(ctx);
  const std::vector<Key> crossref =
      keys_of(crossref::CrossRefChecker().check(ctx, g));
  EXPECT_EQ(crossref, want.crossref)
      << "got:\n" << describe(crossref) << "want:\n"
      << describe(want.crossref) << board.text;
  const std::vector<Key> arity =
      keys_of(graph::GraphChecker().check(g), "graph-cells-arity");
  EXPECT_EQ(arity, want.cells_arity)
      << "got:\n" << describe(arity) << "want:\n"
      << describe(want.cells_arity) << board.text;

  // The convenience overloads decode through the same graph.
  EXPECT_EQ(keys_of(crossref::CrossRefChecker().check(*tree)), crossref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomReferences,
                         ::testing::Range<uint32_t>(1, 61));

// Guards the generator: across the seeds every reference rule fires.
TEST(RandomReferencesGenerator, SeedsProduceEveryReferenceRule) {
  std::set<std::string> rules;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    const Expected want = oracle(Generator(seed).draw());
    for (const Key& k : want.crossref) rules.insert(std::get<0>(k));
    for (const Key& k : want.cells_arity) rules.insert(std::get<0>(k));
  }
  for (const char* rule :
       {"phandle-dangling", "provider-missing-cells", "phandle-args-arity",
        "interrupt-parent-dangling", "interrupt-provider-missing-cells",
        "interrupt-cells-arity", "provider-orphan", "graph-cells-arity"}) {
    EXPECT_EQ(rules.count(rule), 1u) << "no seed produces " << rule;
  }
}

// The pinned verdict: `0` is an unresolved placeholder for every reference
// rule, so decoding `clocks` stops there and /prov, named only after it,
// is an orphan.
TEST(ReferencePlaceholder, ProviderPastAPlaceholderCellIsAnOrphan) {
  support::DiagnosticEngine de;
  auto tree = dts::parse_dts(
      "/dts-v1/;\n/ { zero { phandle = <0>; #clock-cells = <1>; }; "
      "prov { phandle = <5>; #clock-cells = <0>; }; "
      "dev { clocks = <0 7 5>; }; };\n",
      "t.dts", de);
  ASSERT_NE(tree, nullptr) << de.render();
  const std::vector<Key> got =
      keys_of(crossref::CrossRefChecker().check(*tree));
  const std::vector<Key> want = {
      {"phandle-dangling", "/dev", "clocks",
       "entry 0 of 'clocks' references phandle 0, which no node carries", ""},
      {"provider-orphan", "/prov", "#clock-cells",
       "declares #clock-cells but no phandle reference reaches this provider",
       ""},
  };
  EXPECT_EQ(got, want) << describe(got);

  // The graph agrees: one unresolved edge, nothing decoded past it.
  const graph::DeviceGraph g = graph::DeviceGraph::build(*tree);
  ASSERT_EQ(g.edges().size(), 1u);
  EXPECT_FALSE(g.edge(0).resolved);
  EXPECT_EQ(g.edge(0).phandle_cell, 0u);
}

}  // namespace
}  // namespace llhsc::checkers
