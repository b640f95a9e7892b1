#include "dts/tree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dts/printer.hpp"

namespace llhsc::dts {
namespace {

TEST(Property, TypedConstructorsAndReaders) {
  Property b = Property::boolean("flag");
  EXPECT_TRUE(b.is_boolean());

  Property c = Property::cells("reg", {0x40000000, 0x20000000});
  auto cells = c.as_cells();
  ASSERT_TRUE(cells.has_value());
  EXPECT_EQ(*cells, (std::vector<uint64_t>{0x40000000, 0x20000000}));
  EXPECT_FALSE(c.as_string().has_value());

  Property s = Property::string("device_type", "memory");
  EXPECT_EQ(s.as_string(), "memory");
  EXPECT_FALSE(s.as_cells().has_value());

  Property sl = Property::strings("compatible", {"a,b", "c"});
  EXPECT_EQ(sl.as_string_list(), (std::vector<std::string>{"a,b", "c"}));
  EXPECT_FALSE(sl.as_string().has_value()) << "two strings are not one string";

  Property u = Property::cells("#address-cells", {2});
  EXPECT_EQ(u.as_u32(), 2u);
  Property too_many = Property::cells("x", {1, 2});
  EXPECT_FALSE(too_many.as_u32().has_value());
  Property too_big = Property::cells("x", {0x1'0000'0000ull});
  EXPECT_FALSE(too_big.as_u32().has_value());
}

TEST(Node, BaseNameAndUnitAddress) {
  Node n("memory@40000000");
  EXPECT_EQ(n.base_name(), "memory");
  EXPECT_EQ(n.unit_address(), "40000000");
  Node plain("cpus");
  EXPECT_EQ(plain.base_name(), "cpus");
  EXPECT_TRUE(plain.unit_address().empty());
}

TEST(Node, PropertySetReplaceRemove) {
  Node n("n");
  n.set_property(Property::cells("a", {1}));
  n.set_property(Property::cells("a", {2}));
  EXPECT_EQ(n.properties().size(), 1u);
  EXPECT_EQ(n.find_property("a")->as_u32(), 2u);
  EXPECT_TRUE(n.remove_property("a"));
  EXPECT_FALSE(n.remove_property("a"));
  EXPECT_EQ(n.find_property("a"), nullptr);
}

TEST(Node, ChildManagement) {
  Node n("parent");
  n.add_child(std::make_unique<Node>("child@0"));
  n.get_or_create_child("child@1");
  n.get_or_create_child("child@1");  // idempotent
  EXPECT_EQ(n.children().size(), 2u);
  EXPECT_NE(n.find_child("child@0"), nullptr);
  EXPECT_EQ(n.find_child("child"), nullptr);
  // Fuzzy lookup by base name is ambiguous here.
  EXPECT_EQ(n.find_child_fuzzy("child"), nullptr);
  EXPECT_TRUE(n.remove_child("child@0"));
  EXPECT_EQ(n.find_child_fuzzy("child"), n.find_child("child@1"));
}

TEST(Node, MergePropertiesChildrenLabels) {
  Node a("n");
  a.set_property(Property::cells("p", {1}));
  a.get_or_create_child("kid").set_property(Property::cells("x", {10}));
  a.add_label("l1");

  Node b("n");
  b.set_property(Property::cells("p", {2}));
  b.set_property(Property::cells("q", {3}));
  Node& bkid = b.get_or_create_child("kid");
  bkid.set_property(Property::cells("y", {20}));
  b.add_label("l2");

  a.merge_from(std::move(b));
  EXPECT_EQ(a.find_property("p")->as_u32(), 2u);
  EXPECT_EQ(a.find_property("q")->as_u32(), 3u);
  Node* kid = a.find_child("kid");
  ASSERT_NE(kid, nullptr);
  EXPECT_EQ(kid->find_property("x")->as_u32(), 10u);
  EXPECT_EQ(kid->find_property("y")->as_u32(), 20u);
  EXPECT_EQ(a.labels(), (std::vector<support::Atom>{"l1", "l2"}));
  EXPECT_EQ(a.children().size(), 1u);
}

TEST(Node, CloneIsDeep) {
  Node n("root");
  n.set_property(Property::cells("p", {1}));
  n.get_or_create_child("kid").set_property(Property::string("s", "v"));
  n.set_provenance("d1");
  auto copy = n.clone();
  // Mutating the copy must not affect the original.
  copy->find_child("kid")->set_property(Property::string("s", "changed"));
  copy->set_property(Property::cells("p", {9}));
  EXPECT_EQ(n.find_child("kid")->find_property("s")->as_string(), "v");
  EXPECT_EQ(n.find_property("p")->as_u32(), 1u);
  EXPECT_EQ(copy->provenance(), "d1");
}

TEST(Node, CellDefaults) {
  Node n("n");
  EXPECT_EQ(n.address_cells_or_default(), 2u);
  EXPECT_EQ(n.size_cells_or_default(), 1u);
  n.set_property(Property::cells("#address-cells", {1}));
  n.set_property(Property::cells("#size-cells", {0}));
  EXPECT_EQ(n.address_cells_or_default(), 1u);
  EXPECT_EQ(n.size_cells_or_default(), 0u);
}

TEST(Tree, FindPaths) {
  Tree t;
  Node& cpus = t.root().get_or_create_child("cpus");
  cpus.get_or_create_child("cpu@0");
  t.root().get_or_create_child("memory@40000000");

  EXPECT_EQ(t.find("/"), &t.root());
  EXPECT_EQ(t.find("/cpus"), &cpus);
  EXPECT_NE(t.find("/cpus/cpu@0"), nullptr);
  EXPECT_NE(t.find("/memory"), nullptr) << "base-name fallback";
  EXPECT_EQ(t.find("/nope"), nullptr);
  EXPECT_EQ(t.find("relative"), nullptr);
  EXPECT_EQ(t.find(""), nullptr);
}

TEST(Tree, PathOf) {
  Tree t;
  Node& cpu0 = t.root().get_or_create_child("cpus").get_or_create_child("cpu@0");
  EXPECT_EQ(t.path_of(cpu0), "/cpus/cpu@0");
  EXPECT_EQ(t.path_of(t.root()), "/");
  Node orphan("x");
  EXPECT_EQ(t.path_of(orphan), "");
}

TEST(Tree, VisitIsPreOrder) {
  Tree t;
  t.root().get_or_create_child("a").get_or_create_child("b");
  t.root().get_or_create_child("c");
  std::vector<std::string> paths;
  t.visit([&](const std::string& p, const Node&) { paths.push_back(p); });
  EXPECT_EQ(paths, (std::vector<std::string>{"/", "/a", "/a/b", "/c"}));
}

TEST(Tree, NodeCount) {
  Tree t;
  EXPECT_EQ(t.node_count(), 1u);
  t.root().get_or_create_child("a").get_or_create_child("b");
  t.root().get_or_create_child("c");
  EXPECT_EQ(t.node_count(), 4u);
}

TEST(Tree, CloneIndependence) {
  Tree t;
  t.root().get_or_create_child("n").set_property(Property::cells("v", {1}));
  t.memreserves().push_back({0x1000, 0x100});
  auto copy = t.clone();
  copy->find("/n")->set_property(Property::cells("v", {2}));
  EXPECT_EQ(t.find("/n")->find_property("v")->as_u32(), 1u);
  EXPECT_EQ(copy->memreserves().size(), 1u);
}

TEST(Tree, ResolveReferencesAssignsUniquePhandles) {
  Tree t;
  Node& a = t.root().get_or_create_child("a");
  a.add_label("la");
  Node& b = t.root().get_or_create_child("b");
  b.add_label("lb");
  Node& user = t.root().get_or_create_child("user");
  Property p;
  p.name = "link";
  p.chunks.push_back(Chunk::make_cells(
      {Cell::reference("la"), Cell::reference("lb"), Cell::reference("la")}));
  user.set_property(std::move(p));

  support::DiagnosticEngine de;
  ASSERT_TRUE(t.resolve_references(de)) << de.render();
  auto pa = a.find_property("phandle");
  auto pb = b.find_property("phandle");
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_NE(pa->as_u32(), pb->as_u32());
  auto cells = user.find_property("link")->as_cells();
  ASSERT_TRUE(cells.has_value());
  EXPECT_EQ((*cells)[0], *pa->as_u32());
  EXPECT_EQ((*cells)[1], *pb->as_u32());
  EXPECT_EQ((*cells)[2], *pa->as_u32()) << "same label, same phandle";
}

TEST(Tree, ResolveRefChunkExpandsToPath) {
  Tree t;
  Node& target = t.root().get_or_create_child("soc").get_or_create_child("uart@0");
  target.add_label("u0");
  Node& aliases = t.root().get_or_create_child("aliases");
  Property p;
  p.name = "serial0";
  p.chunks.push_back(Chunk::make_ref("u0"));
  aliases.set_property(std::move(p));

  support::DiagnosticEngine de;
  ASSERT_TRUE(t.resolve_references(de));
  EXPECT_EQ(aliases.find_property("serial0")->as_string(), "/soc/uart@0");
}

TEST(Tree, ResolveRespectsExistingPhandles) {
  Tree t;
  Node& a = t.root().get_or_create_child("a");
  a.add_label("la");
  a.set_property(Property::cells("phandle", {7}));
  Node& b = t.root().get_or_create_child("b");
  b.add_label("lb");
  Node& user = t.root().get_or_create_child("user");
  Property p;
  p.name = "link";
  p.chunks.push_back(
      Chunk::make_cells({Cell::reference("la"), Cell::reference("lb")}));
  user.set_property(std::move(p));

  support::DiagnosticEngine de;
  ASSERT_TRUE(t.resolve_references(de));
  auto cells = user.find_property("link")->as_cells();
  EXPECT_EQ((*cells)[0], 7u);
  EXPECT_NE((*cells)[1], 7u) << "fresh phandle must not collide";
}

TEST(Tree, ResolveDiagnosesDuplicateExplicitPhandles) {
  Tree t;
  t.root().get_or_create_child("a").set_property(
      Property::cells("phandle", {7}));
  t.root().get_or_create_child("b").set_property(
      Property::cells("phandle", {7}));

  support::DiagnosticEngine de;
  EXPECT_FALSE(t.resolve_references(de));
  EXPECT_TRUE(de.contains_code("dts-duplicate-phandle")) << de.render();
}

TEST(Tree, ResolveDiagnosesMalformedPhandleWithoutOverwriting) {
  Tree t;
  Node& a = t.root().get_or_create_child("a");
  a.add_label("la");
  a.set_property(Property::strings("phandle", {"nope"}));
  Node& user = t.root().get_or_create_child("user");
  Property p;
  p.name = "link";
  p.chunks.push_back(Chunk::make_cells({Cell::reference("la")}));
  user.set_property(std::move(p));

  support::DiagnosticEngine de;
  EXPECT_FALSE(t.resolve_references(de));
  EXPECT_TRUE(de.contains_code("dts-bad-phandle")) << de.render();
  EXPECT_EQ(a.find_property("phandle")->as_string(), "nope")
      << "assignment must not silently replace a malformed phandle";
}

TEST(Tree, AutoAssignmentSkipsExplicitValues) {
  // A gap-filling assignment must never alias an explicit phandle, even one
  // larger than the running counter.
  Tree t;
  Node& a = t.root().get_or_create_child("a");
  a.add_label("la");
  Node& taken = t.root().get_or_create_child("taken");
  taken.set_property(Property::cells("phandle", {1}));
  Node& user = t.root().get_or_create_child("user");
  Property p;
  p.name = "link";
  p.chunks.push_back(Chunk::make_cells({Cell::reference("la")}));
  user.set_property(std::move(p));

  support::DiagnosticEngine de;
  ASSERT_TRUE(t.resolve_references(de));
  auto assigned = a.find_property("phandle")->as_u32();
  ASSERT_TRUE(assigned.has_value());
  EXPECT_NE(*assigned, 1u) << "value 1 is explicitly taken";
}

TEST(Tree, SelfReferenceAssignsThePhandleAfterTheWalk) {
  // The node's own cells name its label and it has no explicit phandle, so
  // it gets a fresh one. `link` comes first and the properties vector is
  // full: appending `phandle` during the walk would reallocate it under
  // the iteration that still has to visit a-c (a heap-use-after-free under
  // ASan); the phandle must be written after the walk.
  Tree t;
  Node& self = t.root().get_or_create_child("self");
  self.add_label("me");
  Property p;
  p.name = "link";
  p.chunks.push_back(Chunk::make_cells(
      {Cell::reference("me"), Cell::literal(2), Cell::reference("me")}));
  self.set_property(std::move(p));
  for (const char* name : {"a", "b", "c"}) {
    self.set_property(Property::cells(name, {1}));
  }

  support::DiagnosticEngine de;
  ASSERT_TRUE(t.resolve_references(de)) << de.render();
  const Property* ph = self.find_property("phandle");
  ASSERT_NE(ph, nullptr);
  ASSERT_TRUE(ph->as_u32().has_value());
  auto cells = self.find_property("link")->as_cells();
  ASSERT_TRUE(cells.has_value());
  EXPECT_EQ(*cells, (std::vector<uint64_t>{*ph->as_u32(), 2, *ph->as_u32()}));
  EXPECT_EQ(self.properties().back().name, "phandle")
      << "the assigned phandle is appended after the existing properties";
}

// ---- seeded resolve_references suite ----
//
// Random trees whose labels are shared by several nodes, whose cells and
// path chunks reference labels (their own node's included, and labels no
// node carries), and whose explicit phandles leave gaps, some of them
// duplicated or malformed. Tree::resolve_references must leave the same
// tree and the same diagnostics as a brute-force reference that looks each
// label up by scanning the whole tree.

constexpr const char* kLabelPool[] = {"la", "lb", "lc", "ld", "le"};
constexpr const char* kMissingLabel = "nowhere";

struct RandomTree {
  Tree tree;
  // What the generator seeded, for the coverage guard.
  bool shared_label = false;
  bool self_reference = false;
  bool cell_reference = false;
  bool path_reference = false;
  bool unresolved = false;
  bool explicit_gap = false;
};

void random_subtree(Node& node, int depth, std::mt19937& rng, int& counter,
                    std::map<std::string, int>& label_uses, RandomTree& out) {
  auto chance = [&](int percent) {
    return std::uniform_int_distribution<int>(0, 99)(rng) < percent;
  };
  auto pick_label = [&] {
    if (chance(10)) return std::string(kMissingLabel);
    return std::string(kLabelPool[std::uniform_int_distribution<size_t>(
        0, std::size(kLabelPool) - 1)(rng)]);
  };
  if (chance(45)) {
    const std::string label = pick_label();
    if (label != kMissingLabel) {
      node.add_label(label);
      if (++label_uses[label] > 1) out.shared_label = true;
    }
  }
  if (chance(20)) {
    // Explicit phandles from a sparse set: gaps below and between them,
    // and now and then a value two nodes share.
    static constexpr uint32_t kValues[] = {2, 3, 5, 9, 14};
    const uint32_t v = kValues[std::uniform_int_distribution<size_t>(
        0, std::size(kValues) - 1)(rng)];
    node.set_property(Property::cells("phandle", {v}));
    out.explicit_gap = true;
  } else if (chance(3)) {
    node.set_property(Property::string("phandle", "bad"));
  }
  const int props = std::uniform_int_distribution<int>(0, 2)(rng);
  for (int i = 0; i < props; ++i) {
    Property p;
    p.name = "p" + std::to_string(i);
    if (chance(25)) {
      const std::string label = pick_label();
      p.chunks.push_back(Chunk::make_ref(label));
      out.path_reference = true;
      out.unresolved |= label == kMissingLabel;
    } else {
      std::vector<Cell> cells;
      const int n = std::uniform_int_distribution<int>(1, 4)(rng);
      for (int k = 0; k < n; ++k) {
        if (chance(50)) {
          const std::string label = pick_label();
          cells.push_back(Cell::reference(label));
          out.cell_reference = true;
          out.unresolved |= label == kMissingLabel;
          for (Atom l : node.labels()) out.self_reference |= l == label;
        } else {
          cells.push_back(Cell::literal(k));
        }
      }
      p.chunks.push_back(Chunk::make_cells(std::move(cells)));
    }
    node.set_property(std::move(p));
  }
  if (depth >= 4) return;
  const int children = std::uniform_int_distribution<int>(0, 3)(rng);
  for (int i = 0; i < children; ++i) {
    Node& child =
        node.add_child(std::make_unique<Node>("n" + std::to_string(counter++)));
    random_subtree(child, depth + 1, rng, counter, label_uses, out);
  }
}

RandomTree random_tree(uint32_t seed) {
  RandomTree out;
  std::mt19937 rng(seed);
  int counter = 0;
  std::map<std::string, int> label_uses;
  random_subtree(out.tree.root(), 0, rng, counter, label_uses, out);
  return out;
}

void preorder(Node& node, const std::string& path,
              std::vector<std::pair<std::string, Node*>>& out) {
  out.emplace_back(path, &node);
  for (const auto& c : node.children()) {
    preorder(*c, path == "/" ? "/" + c->name() : path + "/" + c->name(), out);
  }
}

/// The brute-force reference: every label is looked up by scanning the
/// whole pre-order list.
std::vector<support::Diagnostic> reference_resolve(Tree& tree) {
  support::DiagnosticEngine diags;
  std::vector<std::pair<std::string, Node*>> nodes;
  preorder(tree.root(), "/", nodes);
  std::set<uint32_t> taken;
  std::map<uint32_t, std::string> holders;
  for (const auto& [path, node] : nodes) {
    const Property* p = node->find_property("phandle");
    if (p == nullptr) continue;
    if (!p->as_u32()) {
      diags.error("dts-bad-phandle", "phandle property of node " + path +
                                         " is not a single u32 cell");
      continue;
    }
    const uint32_t v = *p->as_u32();
    if (holders.count(v) > 0) {
      diags.error("dts-duplicate-phandle",
                  "phandle value " + std::to_string(v) + " of node " + path +
                      " is already carried by " + holders[v]);
    } else {
      holders[v] = path;
    }
    taken.insert(v);
  }
  auto lookup = [&](std::string_view label)
      -> const std::pair<std::string, Node*>* {
    for (const auto& entry : nodes) {
      for (Atom l : entry.second->labels()) {
        if (l == label) return &entry;
      }
    }
    return nullptr;
  };
  auto unresolved = [&](std::string_view label, const Property& p,
                        const std::string& path) {
    diags.error("dts-unresolved-ref",
                "unresolved reference &" + std::string(label) +
                    " in property '" + p.name + "' of node " + path);
  };
  std::vector<std::pair<Node*, uint32_t>> assigned;
  uint32_t next = 1;
  for (const auto& [path, node] : nodes) {
    for (Property& p : node->properties()) {
      for (Chunk& chunk : p.chunks) {
        if (chunk.kind == ChunkKind::kRef) {
          if (const auto* target = lookup(chunk.text)) {
            chunk = Chunk::make_string(target->first);
          } else {
            unresolved(chunk.text, p, path);
          }
          continue;
        }
        for (Cell& cell : chunk.cells) {
          if (!cell.is_ref) continue;
          const auto* target = lookup(cell.ref);
          if (target == nullptr) {
            unresolved(cell.ref, p, path);
            continue;
          }
          const Property* ph = target->second->find_property("phandle");
          if (ph != nullptr) {
            if (ph->as_u32()) cell = Cell::literal(*ph->as_u32());
            continue;
          }
          uint32_t value = 0;
          for (const auto& [n, v] : assigned) {
            if (n == target->second) value = v;
          }
          if (value == 0) {
            while (taken.count(next) > 0) ++next;
            value = next++;
            assigned.emplace_back(target->second, value);
          }
          cell = Cell::literal(value);
        }
      }
    }
  }
  for (const auto& [node, value] : assigned) {
    node->set_property(Property::cells("phandle", {value}));
  }
  return diags.diagnostics();
}

std::vector<std::pair<std::string, std::string>> codes_and_messages(
    const std::vector<support::Diagnostic>& diags) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const support::Diagnostic& d : diags) {
    out.emplace_back(d.code, d.message);
  }
  return out;
}

TEST(RandomResolve, SeedsCoverEveryCase) {
  RandomTree any;
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    const RandomTree t = random_tree(seed);
    any.shared_label |= t.shared_label;
    any.self_reference |= t.self_reference;
    any.cell_reference |= t.cell_reference;
    any.path_reference |= t.path_reference;
    any.unresolved |= t.unresolved;
    any.explicit_gap |= t.explicit_gap;
  }
  EXPECT_TRUE(any.shared_label);
  EXPECT_TRUE(any.self_reference);
  EXPECT_TRUE(any.cell_reference);
  EXPECT_TRUE(any.path_reference);
  EXPECT_TRUE(any.unresolved);
  EXPECT_TRUE(any.explicit_gap);
}

class RandomResolveTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomResolveTest, MatchesBruteForceReference) {
  RandomTree generated = random_tree(GetParam());
  Tree& actual = generated.tree;
  auto expected = actual.clone();
  const std::string before = print_dts(actual);

  support::DiagnosticEngine diags;
  const bool ok = actual.resolve_references(diags);
  const std::vector<support::Diagnostic> want = reference_resolve(*expected);

  EXPECT_EQ(print_dts(actual), print_dts(*expected)) << before;
  EXPECT_EQ(codes_and_messages(diags.diagnostics()), codes_and_messages(want))
      << before;
  EXPECT_EQ(ok, want.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomResolveTest,
                         ::testing::Range<uint32_t>(1, 41));

}  // namespace
}  // namespace llhsc::dts
