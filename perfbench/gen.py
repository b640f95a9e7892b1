"""Seeded input generator for the llhsc benchmark.

Every input is a pure function of (seed, workload, index): the same seed
yields byte-identical files. Each input comes with a reference manifest of
the findings llhsc must report, as (rule, subject) pairs. The manifest is
derived from the faults this generator seeds, never from llhsc output; the
generator re-checks its own address map so no fault is seeded by accident.

Pairwise findings (address-overlap) are keyed orientation-free: the subject
is "<a> <-> <b>" with the two region names sorted, because a lifted slice
may report either side first.

Usage:  python3 perfbench/gen.py <workload> <seed> <outdir>
"""

import json
import os
import random
import sys

PAIRWISE = {"address-overlap", "interrupt-collision", "clock-collision"}
# Seeded findings reported at warning severity; every other seeded finding
# is an error, so a manifest also fixes the expected exit code.
WARNING_RULES = {"unit-address-mismatch"}

# Board sizes (nodes below the root) for the one-shot corpus. A fixed
# ladder keeps the cost profile of a corpus independent of the seed; the
# seed moves names, addresses, provider webs and fault placement. Small and
# large sizes alternate, so a run that stops mid-pass is not biased.
BOARD_LADDER = [110, 30, 200, 60, 150, 90, 180, 40, 130,
                120, 50, 190, 80, 160, 100, 170, 70, 140]
# Feature counts of the lifted families: 2^12 .. 2^20 configurations.
FAMILY_LADDER = [16, 12, 20, 14, 18]


def pair_subject(a, b):
    lo, hi = sorted((a, b))
    return lo + " <-> " + hi


def expected_exit(expected):
    """llhsc's exit code for a manifest: 1 when any finding is an error."""
    return 1 if any(rule not in WARNING_RULES for rule, _ in expected) else 0


def canonical(findings):
    """Sorted (rule, subject) list: the form manifests are compared in."""
    return sorted([list(f) for f in findings])


# ---------------------------------------------------------------------------
# A minimal DTS tree model: enough to render text and to know every path.
# ---------------------------------------------------------------------------


class Node:
    def __init__(self, name, label=None, props=None):
        self.name = name
        self.label = label
        self.props = props or []
        self.children = []
        self.include = None  # file name when this subtree lives in a .dtsi

    def add(self, child):
        self.children.append(child)
        return child


def render_node(node, depth):
    pad = "    " * depth
    head = (node.label + ": " if node.label else "") + node.name
    out = [pad + head + " {"]
    for key, value in node.props:
        out.append(pad + "    " + (key + ";" if value is None
                                   else key + " = " + value + ";"))
    for child in node.children:
        if child.include:
            out.append(pad + '    /include/ "' + child.include + '"')
        else:
            out.extend(render_node(child, depth + 1))
    out.append(pad + "};")
    return out


def render_tree(root, files, main_name):
    """Renders root into files[main_name]; included subtrees go to their own
    .dtsi files (spliced back at the same position by the parser)."""
    body = ["/dts-v1/;", ""] + render_node(root, 0)
    files[main_name] = "\n".join(body) + "\n"
    for child in root.children:
        if child.include:
            files[child.include] = "\n".join(render_node(child, 0)) + "\n"


def cells(*values):
    return "<" + " ".join(hex(v) for v in values) + ">"


def walk(node, path, out):
    out.append((path, node))
    for child in node.children:
        walk(child, (path if path != "/" else "") + "/" + child.name, out)


# ---------------------------------------------------------------------------
# Boards (one-shot corpus, and the check traffic of session-edits)
# ---------------------------------------------------------------------------

SLOT = 0x10000        # device stride inside a bus window
DEV_SIZE = 0x1000
BUS_WINDOW = 0x1000000
APB_BASE = 0x800000   # nested bus window inside each top-level bus
APB_WINDOW = 0x100000


class Board:
    def __init__(self, name):
        self.name = name
        self.files = {}
        self.expected = []
        self.regions = []      # (cpu_base, size, region name, is_fault)
        self.nodes = 0
        self.matched = 0


def make_board(rng, name, n_nodes, faults, cpus_dtsi=None,
               shared_providers=False):
    """A board of n_nodes nodes below the root, about half of them matched
    by a builtin schema, with the requested seeded faults:
      overlap   - two bus devices overlapping by 16 bytes
      truncate  - 64-bit reg entries under a 32-bit bus (paper's d3 case)
      dangling  - a clocks entry naming a phandle no node carries
      cycle     - two clock controllers feeding each other
    `cpus_dtsi`, when given, names a shared .dtsi holding the cpus node.
    `shared_providers` marks the clock/reset providers `shared`, as a core
    every product of a line derives from must (graph-exclusive-provider)."""
    shared = [("shared", None)] if shared_providers else []
    b = Board(name)
    root = Node("/", props=[
        ("#address-cells", "<2>"), ("#size-cells", "<2>"),
        ("compatible", '"bench,board"'), ("model", '"bench ' + name + '"'),
        ("interrupt-parent", "<&gic>"),
    ])
    # cpus (shared .dtsi): 1 + 4 matched nodes.
    cpus = root.add(Node("cpus", props=[("#address-cells", "<1>"),
                                        ("#size-cells", "<0>")]))
    cpus.include = cpus_dtsi or (name + "-cpus.dtsi")
    for i in range(4):
        cpus.add(Node("cpu@%x" % i, props=[
            ("compatible", '"arm,cortex-a53"'), ("device_type", '"cpu"'),
            ("enable-method", '"psci"'), ("reg", cells(i))]))
    # Memory: two adjacent banks (touching, not overlapping).
    bank = 0x80000000
    root.add(Node("memory@%x" % bank, props=[
        ("device_type", '"memory"'),
        ("reg", cells(0, bank, 0, 0x20000000, 0, bank + 0x20000000, 0,
                      0x20000000))]))
    b.regions.append((bank, 0x20000000, "/memory@%x[0]" % bank, False))
    b.regions.append((bank + 0x20000000, 0x20000000, "/memory@%x[1]" % bank,
                      False))
    root.add(Node("oscillator", label="osc", props=[
        ("compatible", '"fixed-clock"'), ("#clock-cells", "<0>"),
        ("clock-frequency", "<24000000>")] + shared))
    gic_base = 0xf0000000
    root.add(Node("interrupt-controller@%x" % gic_base, label="gic", props=[
        ("compatible", '"arm,gic-400"'), ("interrupt-controller", None),
        ("#interrupt-cells", "<1>"), ("reg", cells(0, gic_base, 0, 0x10000))]))
    b.regions.append((gic_base, 0x10000,
                      "/interrupt-controller@%x[0]" % gic_base, False))
    fixed = 1 + 4 + 1 + 1 + 1

    # Buses: top-level windows above 4 GiB, each with a nested apb window.
    n_buses = max(2, n_nodes // 45)
    fault_nodes = (2 if "overlap" in faults else 0) + \
        (2 if "truncate" in faults else 0) + \
        (3 if "cycle" in faults else 0)
    n_providers = 2 + n_nodes // 30          # clock + reset controllers
    n_devices = n_nodes - fixed - 2 * n_buses - n_providers - fault_nodes
    if n_devices < 2 * n_providers:
        raise ValueError("board too small: %d nodes" % n_nodes)
    n_uarts = max(1, n_nodes // 2 - 6)       # matched = 6 + uarts ~ half
    buses = []
    for i in range(n_buses):
        pa = 0x100000000 + i * 0x10000000
        bus = root.add(Node("soc%d" % i, props=[
            ("compatible", '"simple-bus"'), ("#address-cells", "<1>"),
            ("#size-cells", "<1>"), ("ranges", cells(0, pa >> 32,
                                                      pa & 0xffffffff,
                                                      BUS_WINDOW))]))
        apb = bus.add(Node("apb", props=[
            ("compatible", '"simple-bus"'), ("#address-cells", "<1>"),
            ("#size-cells", "<1>"), ("ranges", cells(0, APB_BASE,
                                                      APB_WINDOW))]))
        buses.append({"node": bus, "pa": pa, "next": 0,
                      "path": "/soc%d" % i})
        buses.append({"node": apb, "pa": pa + APB_BASE, "next": 0,
                      "path": "/soc%d/apb" % i, "limit": APB_WINDOW})
    buses[0]["node"].include = name + "-soc.dtsi"

    def slot(bus_index):
        # The requested bus, or the next one with a free slot.
        for step in range(len(buses)):
            bus = buses[(bus_index + step) % len(buses)]
            if bus["next"] + SLOT <= bus.get("limit", APB_BASE):
                bus["next"] += SLOT
                return bus, bus["next"] - SLOT
        raise ValueError("every bus window is full")

    def place(bus_index, base_name, props, label=None, local=None,
              fault=False):
        if local is None:
            bus, local = slot(bus_index)
        else:
            bus = buses[bus_index]
        node = Node("%s@%x" % (base_name, local), label=label,
                    props=[("reg", cells(local, DEV_SIZE))] + props)
        bus["node"].add(node)
        path = bus["path"] + "/" + node.name
        b.regions.append((bus["pa"] + local, DEV_SIZE, path + "[0]", fault))
        return path

    irq = [32]

    def next_irq():
        irq[0] += 1
        return "<%d>" % irq[0]

    # Providers: clock controllers fed by the oscillator, reset controllers.
    clocks, resets = [], []
    for p in range(n_providers):
        bus_index = rng.randrange(len(buses))
        if p % 2 == 0:
            label = "clkc%d" % p
            place(bus_index, "clock-controller", [
                ("compatible", '"bench,clkc"'), ("#clock-cells", "<1>"),
                ("clocks", "<&osc>")] + shared, label=label)
            clocks.append(label)
        else:
            label = "rstc%d" % p
            place(bus_index, "reset-controller", [
                ("compatible", '"bench,rstc"'), ("#reset-cells", "<1>")]
                + shared, label=label)
            resets.append(label)

    # Devices: uarts (schema-matched) and unmatched peripherals; every
    # provider gets at least one enabled consumer so none is orphaned.
    kinds = ["i2c", "spi", "timer", "gpio-bank", "dma", "pwm", "adc"]
    uart_compat = ['"ns16550a"', '"arm,pl011"']
    dangling_at = rng.randrange(n_devices) if "dangling" in faults else -1
    for d in range(n_devices):
        clk = clocks[d % len(clocks)]
        props = [("interrupts", next_irq()),
                 ("clocks", "<&%s %d>" % (clk, rng.randrange(16)))]
        if d < len(resets) or rng.random() < 0.5:
            props.append(("resets", "<&%s %d>" % (resets[d % len(resets)],
                                                  rng.randrange(16))))
        if d == dangling_at:
            props[1] = ("clocks", "<0xdead00 1>")
        is_uart = d < n_uarts
        if is_uart:
            props.insert(0, ("compatible", rng.choice(uart_compat)))
            base = "uart"
        else:
            base = rng.choice(kinds)
            props.insert(0, ("compatible", '"bench,%s"' % base))
        path = place(rng.randrange(len(buses)), base, props)
        if d == dangling_at:
            b.expected.append(("phandle-dangling", path))
            b.expected.append(("graph-status-propagation", path))

    if "overlap" in faults:
        bus, local = slot(rng.randrange(len(buses)))
        bus_index = buses.index(bus)
        a = place(bus_index, "timer", [("compatible", '"bench,timer"'),
                                       ("interrupts", next_irq()),
                                       ("clocks", "<&%s 1>" % clocks[0])],
                  local=local, fault=True)
        c = place(bus_index, "watchdog", [("compatible", '"bench,wdt"'),
                                          ("interrupts", next_irq()),
                                          ("clocks", "<&%s 2>" % clocks[0])],
                  local=local + DEV_SIZE - 0x10, fault=True)
        b.expected.append(("address-overlap", pair_subject(a + "[0]",
                                                           c + "[0]")))
    if "cycle" in faults:
        bus_index = rng.randrange(len(buses))
        pa = place(bus_index, "clock-controller", [
            ("compatible", '"bench,pll"'), ("#clock-cells", "<1>"),
            ("clocks", "<&pllb 0>")], label="plla")
        pb = place(bus_index, "clock-controller", [
            ("compatible", '"bench,pll"'), ("#clock-cells", "<1>"),
            ("clocks", "<&plla 0>")], label="pllb")
        # An enabled consumer keeps both plls demanded (no orphan warning).
        place(rng.randrange(len(buses)), "timer", [
            ("compatible", '"bench,timer"'), ("interrupts", next_irq()),
            ("clocks", "<&plla 3>")])
        # The cycle is anchored on its first member in document order (a
        # full bus window can put the two plls on different buses).
        order = [path for path, _ in _all_nodes(root)]
        b.expected.append(("graph-provider-cycle",
                           min(pa, pb, key=order.index)))
    if "truncate" in faults:
        bus = root.add(Node("soc32", props=[
            ("compatible", '"simple-bus"'), ("#address-cells", "<1>"),
            ("#size-cells", "<1>"), ("ranges", None)]))
        dma = bus.add(Node("dma@50000000", props=[
            ("compatible", '"bench,dma"'),
            ("reg", cells(0, 0x50000000, 0, 0x1000))]))
        path = "/soc32/" + dma.name
        # Read with 1+1 cells: [0x0, +0x50000000) and [0x0, +0x1000).
        b.regions.append((0, 0x50000000, path + "[0]", True))
        b.regions.append((0, 0x1000, path + "[1]", True))
        b.expected.append(("address-overlap", pair_subject(path + "[0]",
                                                           path + "[1]")))
        b.expected.append(("unit-address-mismatch", path))

    _check_address_map(b)
    nodes = _all_nodes(root)
    b.nodes = len(nodes) - 1
    b.matched = sum(1 for p, n in nodes if n.name.startswith(
        ("uart@", "cpu@", "memory@")) or n.name == "cpus")
    render_tree(root, b.files, name + ".dts")
    b.expected = canonical(b.expected)
    return b


def _all_nodes(root):
    out = []
    walk(root, "/", out)
    return out


def _check_address_map(b):
    """Fails generation when two regions overlap that no seeded fault
    explains: the manifest must be the complete truth."""
    regions = sorted(b.regions)
    for i, (base, size, name, fault) in enumerate(regions):
        for base2, size2, name2, fault2 in regions[i + 1:]:
            if base2 >= base + size:
                break
            if not (fault and fault2):
                raise AssertionError("unseeded overlap %s / %s" % (name,
                                                                   name2))


BOARD_FAULTS = [
    ("overlap", "dangling"), ("truncate", "cycle"), ("overlap", "cycle"),
    ("dangling", "truncate"), (), ("overlap", "truncate", "dangling", "cycle"),
]


def oneshot_corpus(seed):
    """One-shot boards: the size ladder, faults rotating through the mix."""
    boards = []
    for i, n in enumerate(BOARD_LADDER):
        rng = random.Random("board:%d:%d" % (seed, i))
        faults = BOARD_FAULTS[(i + seed) % len(BOARD_FAULTS)]
        boards.append(make_board(rng, "board%02d" % i, n, faults,
                                 cpus_dtsi="soc-cpus.dtsi"))
    return boards


# ---------------------------------------------------------------------------
# Product lines (session-edits)
# ---------------------------------------------------------------------------

PRIVATE = 4   # one private delta per product: the edit target
SHARED = 8


class ProductLine:
    pass


def make_product_line(seed, conn, core_nodes=70):
    rng = random.Random("line:%d:%d" % (seed, conn))
    core = make_board(rng, "line%d" % conn, core_nodes, (),
                      shared_providers=True)
    line = ProductLine()
    line.name = "line%d" % conn
    line.core_name = core.name + ".dts"
    line.core_source = core.files[core.name + ".dts"]
    line.includes = {k: v for k, v in core.files.items() if k.endswith(".dtsi")}
    # Deltas add devices to the free tail of /soc1's window.
    base = 0x700000 - 0x10000 * (PRIVATE + SHARED + 2)
    irq = 900
    line.private = []
    deltas = []
    for k in range(PRIVATE):
        addr = base + 0x10000 * k
        line.private.append({"name": "p%d" % k, "addr": addr, "irq": irq + k})
    shared_uarts = []
    for j in range(SHARED):
        addr = base + 0x10000 * (PRIVATE + j)
        shared_uarts.append(addr)
        deltas.append(
            "delta s%d when s%d {\n    adds binding /soc1 {\n"
            "        uart@%x {\n            compatible = \"ns16550a\";\n"
            "            reg = <0x%x 0x1000>;\n            interrupts = <%d>;\n"
            "        };\n    }\n}\n" % (j, j, addr, addr, irq + 10 + j))
    # The fault delta: a device overlapping the first shared uart (which
    # every product selects) by 16 bytes.
    fault_addr = shared_uarts[0] - DEV_SIZE + 0x10
    deltas.append(
        "delta fault when sfault {\n    adds binding /soc1 {\n"
        "        dma@%x {\n            compatible = \"bench,dma\";\n"
        "            reg = <0x%x 0x1000>;\n        };\n    }\n}\n"
        % (fault_addr, fault_addr))
    line.shared_deltas = "".join(deltas)
    line.model_source = "model %s {\n%s}\n" % (
        line.name, "".join("    %s;\n" % f for f in
                           ["p%d" % k for k in range(PRIVATE)] +
                           ["s%d" % j for j in range(SHARED)] + ["sfault"]))
    line.products = []
    line.expected = {}
    for k in range(PRIVATE):
        # A fixed number of shared deltas per product keeps every derived
        # product the same size whatever the seed.
        feats = {"p%d" % k, "s0"}
        feats |= {"s%d" % j for j in rng.sample(range(1, SHARED), 3)}
        if k == 1:
            feats.add("sfault")
        pname = "prod%d" % k
        line.products.append({"name": pname, "features": sorted(feats)})
        exp = []
        if "sfault" in feats:
            exp.append(("address-overlap",
                        pair_subject("/soc1/dma@%x[0]" % fault_addr,
                                     "/soc1/uart@%x[0]" % shared_uarts[0])))
        line.expected[pname] = canonical(exp)
    return line


def deltas_source(private, template, revisions):
    """A product line's delta file with private delta k at revisions[k]:
    `private` and `template` are the "private" and "deltas_template"
    fields of its manifest entry."""
    parts = []
    for p, rev in zip(private, revisions):
        parts.append(
            "delta %s when %s {\n    adds binding /soc1 {\n"
            "        bench-dev@%x {\n            compatible = \"bench,dev\";\n"
            "            reg = <0x%x 0x1000>;\n            interrupts = <%d>;\n"
            "            revision = <%d>;\n        };\n    }\n}\n"
            % (p["name"], p["name"], p["addr"], p["addr"], p["irq"], rev))
    return "".join(parts) + template


def session_check_boards(seed, conn):
    """The boards a session-edits connection checks between edits. They are
    larger than the line's products, so a check miss costs more than an
    edit and the latency percentiles fall inside one kind of operation
    instead of on the edge between two."""
    out = []
    for i, n in enumerate((140, 160, 180)):
        rng = random.Random("sboard:%d:%d:%d" % (seed, conn, i))
        faults = BOARD_FAULTS[(i + conn + seed) % len(BOARD_FAULTS)]
        out.append(make_board(rng, "c%d-board%d" % (conn, i), n, faults))
    return out


# ---------------------------------------------------------------------------
# Lifted families (lifted-family)
# ---------------------------------------------------------------------------


class Family:
    pass


def make_family(seed, index, n_features):
    """n optional features split into groups of 4-5. Each group's deltas
    add devices to one shared bus and enable it, so they form one lifted
    component with 2^m activation patterns. Per group: the first two
    features' devices overlap by 16 bytes (a finding whenever both are
    selected), and an 'alt' delta active exactly when the first feature is
    not overlaps the first device (an obligation that is never satisfiable).
    """
    rng = random.Random("family:%d:%d" % (seed, index))
    n_groups = (n_features + 4) // 5
    sizes = [n_features // n_groups + (1 if g < n_features % n_groups else 0)
             for g in range(n_groups)]
    fam = Family()
    fam.name = "family%02d" % index
    fam.n_features = n_features
    expected = []
    core_lines = ["/dts-v1/;", "", "/ {", "    #address-cells = <1>;",
                  "    #size-cells = <1>;",
                  '    compatible = "bench,family";',
                  "    memory@80000000 {", '        device_type = "memory";',
                  "        reg = <0x80000000 0x10000000>;", "    };"]
    deltas = []
    features = []
    for g, m in enumerate(sizes):
        bus_pa = 0x10000000 + 0x1000000 * g
        bus = "/bus%d" % g
        core_lines += [
            "    bus%d {" % g, '        compatible = "simple-bus";',
            "        #address-cells = <1>;", "        #size-cells = <1>;",
            "        ranges = <0x0 0x%x 0x100000>;" % bus_pa,
            '        status = "disabled";',
            "        dev@0 {", '            compatible = "bench,core-dev";',
            "            reg = <0x0 0x1000>;", "        };", "    };"]
        slots = rng.sample(range(2, 60), m)
        names = []
        for k in range(m):
            feat = "g%df%d" % (g, k)
            features.append(feat)
            if k == 0:
                first_addr = addr = slots[k] * 0x2000
            elif k == 1:
                addr = first_addr + DEV_SIZE - 0x10
            else:
                addr = slots[k] * 0x2000
            dname = "g%dd%d" % (g, k)
            # One `after` clause per predecessor: a direct edge to every
            # earlier writer of the bus status orders each pair.
            after = "".join(" after " + n for n in names)
            deltas.append(
                "delta %s%s when %s {\n    modifies %s {\n"
                "        status = \"okay\";\n        dev@%x {\n"
                "            compatible = \"bench,dev\";\n"
                "            reg = <0x%x 0x1000>;\n        };\n    }\n}\n"
                % (dname, after, feat, bus, addr, addr))
            names.append(dname)
        expected.append(("address-overlap", pair_subject(
            "%s/dev@%x[0]" % (bus, first_addr),
            "%s/dev@%x[0]" % (bus, first_addr + DEV_SIZE - 0x10))))
        alt = first_addr + 0x100
        deltas.append(
            "delta g%dalt%s when !g%df0 {\n    modifies %s {\n"
            "        status = \"okay\";\n        dev@%x {\n"
            "            compatible = \"bench,dev\";\n"
            "            reg = <0x%x 0x100>;\n        };\n    }\n}\n"
            % (g, "".join(" after " + n for n in names), g, bus, alt, alt))
    core_lines += ["};", ""]
    fam.core = "\n".join(core_lines)
    fam.deltas = "".join(deltas)
    fam.model = "model %s {\n%s}\n" % (
        fam.name, "".join("    %s;\n" % f for f in features))
    fam.expected = canonical(expected)
    return fam


# ---------------------------------------------------------------------------
# Writing a workload's inputs
# ---------------------------------------------------------------------------


def _write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def write_workload(workload, seed, outdir, connections=4):
    """Writes every input of `workload` under outdir plus manifest.json,
    and returns the manifest. session-edits makes one product line (and
    its check boards) per connection."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed, "inputs": []}
    if workload == "oneshot-cold":
        for b in oneshot_corpus(seed):
            for fname, text in b.files.items():
                _write(os.path.join(outdir, fname), text)
            manifest["inputs"].append({
                "name": b.name, "file": b.name + ".dts", "nodes": b.nodes,
                "matched": b.matched, "expected": b.expected})
    elif workload == "lifted-family":
        for i, n in enumerate(FAMILY_LADDER):
            fam = make_family(seed, i, n)
            _write(os.path.join(outdir, fam.name + ".dts"), fam.core)
            _write(os.path.join(outdir, fam.name + ".deltas"), fam.deltas)
            _write(os.path.join(outdir, fam.name + ".fm"), fam.model)
            manifest["inputs"].append({
                "name": fam.name, "file": fam.name + ".dts",
                "deltas": fam.name + ".deltas", "model": fam.name + ".fm",
                "features": n, "expected": fam.expected})
    elif workload == "session-edits":
        for c in range(connections):
            line = make_product_line(seed, c)
            boards = session_check_boards(seed, c)
            entry = {
                "name": line.name, "core_name": line.core_name,
                "core_source": line.core_source, "includes": line.includes,
                "deltas_template": line.shared_deltas,
                "private": line.private, "model_source": line.model_source,
                "products": line.products, "expected": line.expected,
                "boards": [{"name": b.name, "file": b.name + ".dts",
                            "source": b.files[b.name + ".dts"],
                            "includes": {k: v for k, v in b.files.items()
                                         if k.endswith(".dtsi")},
                            "nodes": b.nodes, "expected": b.expected}
                           for b in boards]}
            manifest["inputs"].append(entry)
    else:
        raise ValueError("unknown workload " + workload)
    _write(os.path.join(outdir, "manifest.json"),
           json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    write_workload(sys.argv[1], int(sys.argv[2]), sys.argv[3])
