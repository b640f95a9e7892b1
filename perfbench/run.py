#!/usr/bin/env python3
"""The llhsc benchmark: one runner, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload oneshot-cold --seed 1 --seconds 30
    python3 perfbench/run.py --workload session-edits --seed 1 --trace 1
    python3 perfbench/run.py --workload all

Run from the repository root. The first run builds llhsc (the repository
root, via perfbench/CMakeLists.txt) under .bench_build/. Each run generates
its inputs from --seed (perfbench/gen.py), measures one workload for
--seconds, checks every verdict against the generator's manifest, and ends
its standard output with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
(perfbench_layers plus timed CLI / daemon calls) and reports the per-layer
metrics. Every result is also written, stamped with host, commit and
llhsc's effective build type, to .bench_build/results/. See
perfbench/README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
sys.path.insert(0, HERE)
import gen  # noqa: E402

WORKLOADS = ["oneshot-cold", "session-edits", "lifted-family"]

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.overhead_ms": "ms",
    "schema.load_ms": "ms",
    "dts.parse_ms": "ms",
    "dts.nodes": "count",
    "checkers.lint_ms": "ms",
    "checkers.crossref_context_ms": "ms",
    "checkers.crossref_rules_ms": "ms",
    "checkers.graph_build_ms": "ms",
    "checkers.graph_rules_ms": "ms",
    "checkers.syntactic_ms": "ms",
    "checkers.syntactic_solver_checks": "count",
    "checkers.semantic_ms": "ms",
    "checkers.semantic_solver_checks": "count",
    "checkers.semantic_queries_pruned": "count",
    "checkers.semantic_cache_hit_ratio": "ratio",
    "checkers.render_ms": "ms",
    "api.unattributed_ms": "ms",
    "delta.parse_ms": "ms",
    "delta.derive_ms": "ms",
    "server.overhead_ms": "ms",
    "server.store_hit_ratio": "ratio",
    "server.derives_per_edit": "count",
    "server.unit_checks_per_edit": "count",
    "lift.check_ms": "ms",
    "lift.components": "count",
    "lift.patterns": "count",
    "lift.obligations": "count",
    "lift.solver_checks": "count",
}

# Set-ups per run, whose median is setup_s: many when a set-up is only
# input generation (milliseconds), three when it starts and primes llhscd.
SETUP_ROUNDS = {"oneshot-cold": 15, "lifted-family": 31, "session-edits": 3}


STORE_CAPACITY = 128  # llhscd --store-capacity for session-edits


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and stamp
# ---------------------------------------------------------------------------


def build():
    """Builds llhsc and the replay tool; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("llhsc sources not found in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j",
                      str(os.cpu_count() or 1), "--target", "llhsc_cli",
                      "llhscd", "perfbench_layers"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError("build failed: " + " ".join(cmd) +
                                 " (log: .bench_build/build.log)")
    tools = os.path.join(CMAKE_DIR, "llhsc", "tools")
    return {"llhsc": os.path.join(tools, "llhsc"),
            "llhscd": os.path.join(tools, "llhscd"),
            "layers": os.path.join(CMAKE_DIR, "perfbench_layers")}


def stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    # llhsc's *effective* build type, as its own CMakeLists resolved it (an
    # empty cache value means the CMakeLists default), next to the cache.
    with open(os.path.join(CMAKE_DIR, "llhsc_build_type.txt")) as f:
        effective = f.read().strip() or "(none)"
    cached = ""
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                cached = line.split("=", 1)[1].strip()
    return {"host": {"nproc": os.cpu_count(), "cpu": cpu},
            "commit": commit,
            "build": {"llhsc_build_type": effective,
                      "cmake_cache_build_type": cached}}


# ---------------------------------------------------------------------------
# Verdicts: llhsc output -> canonical (rule, subject) set
# ---------------------------------------------------------------------------

FINDING_LINE = re.compile(
    r"^(?:\S+:\d+: )?(?:error|warning): \[([^\]]+)\] (\S+?)"
    r"(?: \(property '[^']*'\))?: ")
OTHER = re.compile(r" \[other: (\S+)\]")


def _key(rule, subject, other):
    if rule in gen.PAIRWISE and other:
        subject = gen.pair_subject(subject, other)
    return (rule, subject)


def findings_from_json(text):
    doc = json.loads(text)
    return {_key(f["rule"], f["subject"], f.get("other"))
            for f in doc["findings"]}


def findings_from_text(text):
    out = set()
    for line in text.splitlines():
        m = FINDING_LINE.match(line)
        if m:
            o = OTHER.search(line)
            out.add(_key(m.group(1), m.group(2), o.group(1) if o else None))
    return out


def same_verdict(got, expected):
    return got == {tuple(e) for e in expected}


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------


def run_child(cmd, cwd, err_path):
    """Runs one CLI process; returns (stdout, exit code, wall ms, maxrss kB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        wall = (time.perf_counter() - t0) * 1000.0
    p.returncode = os.waitstatus_to_exitcode(status)
    return out.decode("utf-8", "replace"), p.returncode, wall, usage.ru_maxrss


class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.lock = threading.Lock()

    def record(self, ms, ok, why=""):
        with self.lock:
            self.latencies.append(ms)
            self.attempted += 1
            if not ok:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = why


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_setups(rounds, setup):
    """Runs setup() `rounds` times; returns (median seconds, last result)."""
    times, result = [], None
    for r in range(rounds):
        t0 = time.perf_counter()
        result = setup(r, r == rounds - 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


# ---------------------------------------------------------------------------
# CLI workloads: oneshot-cold and lifted-family
# ---------------------------------------------------------------------------


def cli_ops(workload, manifest, tools):
    """(name, argv, verify) per input, in corpus order."""
    ops = []
    for entry in manifest["inputs"]:
        expected = entry["expected"]
        exit_code = gen.expected_exit(expected)
        if workload == "oneshot-cold":
            argv = [tools["llhsc"], "check", entry["file"], "--format", "json"]
            parse = findings_from_json
        else:
            argv = [tools["llhsc"], "check", entry["file"], "--lifted",
                    "--deltas", entry["deltas"], "--model", entry["model"]]
            parse = findings_from_text

        def verify(out, code, expected=expected, exit_code=exit_code,
                   parse=parse, name=entry["name"]):
            if code != exit_code:
                return False, "%s: exit %d, want %d" % (name, code, exit_code)
            try:
                got = parse(out)
            except (ValueError, KeyError) as e:
                return False, "%s: unreadable output (%s)" % (name, e)
            if not same_verdict(got, expected):
                return False, "%s: findings %s, want %s" % (
                    name, sorted(got), expected)
            return True, ""
        ops.append((entry["name"], argv, verify))
    return ops


def cli_pass(workload, ops, inputs, work, seconds, tally, walls=None,
             outputs=None):
    """Closed loop, one CLI process at a time, in whole passes over the
    corpus so every input weighs the same in the percentiles: at least one
    pass, and more while another is expected to fit in `seconds`."""
    start = time.perf_counter()
    peak = 0
    passes = 0
    cache_root = os.path.join(work, "cache")
    while True:
        for name, argv, verify in ops:
            cmd = list(argv)
            cache = None
            if workload == "oneshot-cold":
                # A fresh query cache per check: the cold path only writes.
                cache = os.path.join(cache_root, "op%d" % tally.attempted)
                cmd += ["--cache-dir", cache]
            out, code, ms, rss = run_child(cmd, inputs,
                                           os.path.join(work, "stderr.txt"))
            ok, why = verify(out, code)
            tally.record(ms, ok, why)
            peak = max(peak, rss)
            if walls is not None:
                walls.setdefault(name, []).append(ms)
            if outputs is not None:
                outputs[name] = out
            if cache:
                shutil.rmtree(cache, ignore_errors=True)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return peak, elapsed


def generate(workload, seed, inputs, connections=1):
    fresh_dir(inputs)
    return gen.write_workload(workload, seed, inputs, connections)


def run_cli_workload(workload, args, tools, work):
    inputs = os.path.join(work, "inputs")

    def setup(r, last):
        return generate(workload, args.seed, inputs)

    setup_s, manifest = timed_setups(SETUP_ROUNDS[workload], setup)
    ops = cli_ops(workload, manifest, tools)
    tally = Tally()
    peak, elapsed = cli_pass(workload, ops, inputs, work, args.seconds, tally)
    metrics = e2e_metrics(setup_s, tally, elapsed, peak / 1024.0)
    return tally, metrics, {"inputs": len(ops)}


def trace_cli_workload(workload, args, tools, work):
    """Alternates one timed CLI pass over the corpus with one layer-replay
    pass (a fresh perfbench_layers process, as cold as the CLI) until the
    budget is spent, so host drift hits both sides alike."""
    inputs = os.path.join(work, "inputs")
    manifest = generate(workload, args.seed, inputs)
    ops = cli_ops(workload, manifest, tools)
    names = [e["name"] for e in manifest["inputs"]]
    tally = Tally()
    walls, outputs = {}, {}
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        cli_pass(workload, ops, inputs, work, 0, tally, walls=walls,
                 outputs=outputs)
        if workload == "oneshot-cold":
            argv = ["boards", "0", fresh_dir(os.path.join(work, "lcache")),
                    inputs] + [e["file"] for e in manifest["inputs"]]
        else:
            argv = ["lifted", "0", fresh_dir(os.path.join(work, "replay")),
                    inputs] + names
        layers = run_layers(tools, argv)
        if workload == "lifted-family":
            for name in names:
                path = os.path.join(work, "replay", name + ".replay.txt")
                with open(path) as f:
                    if f.read() != outputs[name]:
                        layers["mismatches"] += 1
                        layers["notes"].append("replay differs from CLI on " +
                                               name)
        passes.append(layers)
    metrics = {name: statistics.mean(p["metrics"][name] for p in passes)
               for name in passes[0]["metrics"]}
    inprocess = metrics.get("api.run_check_ms",
                            metrics.get("lifted.inprocess_ms", 0.0))
    cli_mean = statistics.mean(statistics.mean(w) for w in walls.values())
    metrics["cli.overhead_ms"] = cli_mean - inprocess
    summary = {"ops": sum(p["ops"] for p in passes),
               "mismatches": sum(p["mismatches"] for p in passes),
               "notes": [n for p in passes for n in p["notes"]]}
    return tally, summary, metrics


def run_layers(tools, argv):
    r = subprocess.run([tools["layers"]] + argv, capture_output=True,
                       text=True)
    if r.returncode != 0:
        raise BenchError("perfbench_layers failed: " + r.stderr.strip())
    return json.loads(r.stdout.strip().splitlines()[-1])


def e2e_metrics(setup_s, tally, elapsed, peak_mb):
    if not tally.latencies:
        raise BenchError("no operation completed")
    return {
        "setup_s": setup_s,
        "latency_ms.p50": statistics.median(tally.latencies),
        "latency_ms.p90": p90(tally.latencies) if len(tally.latencies) > 1
        else tally.latencies[0],
        "ops_per_s": tally.attempted / elapsed,
        "peak_rss_mb": peak_mb,
    }


# ---------------------------------------------------------------------------
# session-edits: an in-process llhscd on a Unix socket
# ---------------------------------------------------------------------------


class Connection:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def call(self, method, params):
        """One request/reply round trip: (reply, wire request, ms)."""
        self.next_id += 1
        request = {"id": self.next_id, "method": method, "params": params}
        line = (json.dumps(request) + "\n").encode()
        t0 = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        ms = (time.perf_counter() - t0) * 1000.0
        if not reply:
            raise BenchError("daemon closed the connection")
        return json.loads(reply), request, ms

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """An in-process (--workers 0) llhscd; always stopped by stop()."""

    def __init__(self, tools, work):
        # Relative socket path: short whatever the checkout's location.
        self.path = os.path.relpath(os.path.join(work, "d.sock"))
        # A store small enough to reach FIFO eviction within seconds: at the
        # default 512 per class the edit and check traffic crosses into
        # eviction mid-run, so the daemon's peak memory would depend on how
        # many requests the host's speed allowed.
        self.proc = subprocess.Popen(
            [tools["llhscd"], "--socket", self.path, "--store-capacity",
             str(STORE_CAPACITY), "--log-file",
             os.path.join(work, "daemon.log")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.perf_counter() + 30
        while True:
            try:
                Connection(self.path).close()
                return
            except OSError:
                if self.proc.poll() is not None or \
                        time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("llhscd did not start")
                time.sleep(0.005)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Client:
    """One connection's closed loop: alternate a one-delta session edit with
    a check of a board whose content repeats every other check."""

    def __init__(self, conn, entry, cache_dir):
        self.conn = conn
        self.entry = entry
        self.cache_dir = cache_dir
        self.revisions = [0] * len(entry["private"])
        self.edits = 0
        self.checks = 0
        self.sequential = False  # the only client of its daemon
        self.primed = []  # wire requests prime() sent
        self.exit_code = max([gen.expected_exit(e)
                              for e in entry["expected"].values()])

    def session_params(self):
        e = self.entry
        return {
            "core_source": e["core_source"], "core_name": e["core_name"],
            "deltas_source": gen.deltas_source(e["private"],
                                               e["deltas_template"],
                                               self.revisions),
            "deltas_name": e["name"] + ".deltas",
            "model_source": e["model_source"], "model_name": e["name"] + ".fm",
            "base_directory": "", "includes": e["includes"],
            "products": e["products"], "check_platform": False,
            "cache_dir": self.cache_dir,
        }

    def check_params(self, board, tag):
        source = board["source"].replace(
            'model = "bench %s"' % board["name"],
            'model = "bench %s %s"' % (board["name"], tag), 1)
        return {"path": board["file"], "source": source,
                "base_directory": "", "includes": board["includes"],
                "format": "json", "cache_dir": self.cache_dir}

    def prime(self):
        """Set-up traffic: the first session of the line, then one check of
        each board so later checks read the shared query cache."""
        reply, request, ms = self.conn.call("session", self.session_params())
        ok, why = self.verify_session(reply, None)
        if not ok:
            raise BenchError("priming session failed: " + why)
        self.primed = [request]
        for board in self.entry["boards"]:
            reply, request, _ = self.conn.call(
                "check", self.check_params(board, "prime"))
            ok, why = self.verify_check(reply, board)
            if not ok:
                raise BenchError("priming check failed: " + why)
            self.primed.append(request)

    def step(self):
        """One operation; returns (ok, why, ms, wire request, edited, reply)."""
        if (self.edits + self.checks) % 2 == 0:
            k = self.edits % len(self.revisions)
            self.edits += 1
            self.revisions[k] = self.edits
            reply, request, ms = self.conn.call("session",
                                                self.session_params())
            edited = self.entry["products"][k]["name"]
            ok, why = self.verify_session(reply, edited)
            return ok, why, ms, request, edited, reply
        content = self.checks // 2
        self.checks += 1
        board = self.entry["boards"][content % len(self.entry["boards"])]
        reply, request, ms = self.conn.call(
            "check", self.check_params(board, "rev %d" % content))
        ok, why = self.verify_check(reply, board)
        return ok, why, ms, request, "", reply

    def verify_session(self, reply, edited):
        if not reply.get("ok"):
            return False, "daemon error %s" % reply.get("error")
        result = reply["result"]
        if edited is not None:
            # cost.derives is a store-wide counter delta: exact on one
            # connection (the traced pass checks it there), but it also
            # counts other connections' concurrent work. Per request, the
            # same fact is that only the edited product missed the store.
            derived = sorted(u["name"] for u in result["units"]
                             if not u["composed_cache_hit"])
            if derived != [edited]:
                return False, "edit of %s re-derived %s" % (edited, derived)
            if self.sequential and result["cost"]["derives"] != 1:
                return False, "edit of %s: cost.derives %d" % (
                    edited, result["cost"]["derives"])
        if result["exit_code"] != self.exit_code:
            return False, "session exit %d" % result["exit_code"]
        units = {u["name"]: u for u in result["units"]}
        for product, expected in self.entry["expected"].items():
            unit = units.get(product)
            if unit is None or not same_verdict(
                    findings_from_text(unit["report"]), expected):
                return False, "unit %s: %s" % (
                    product, unit["report"] if unit else "missing")
        return True, ""

    def verify_check(self, reply, board):
        if not reply.get("ok"):
            return False, "daemon error %s" % reply.get("error")
        result = reply["result"]
        want = gen.expected_exit(board["expected"])
        if result["exit_code"] != want:
            return False, "%s: exit %d, want %d" % (board["name"],
                                                    result["exit_code"], want)
        got = findings_from_json(result["stdout"])
        if not same_verdict(got, board["expected"]):
            return False, "%s: findings %s" % (board["name"], sorted(got))
        return True, ""


def start_session_daemon(tools, args, work, n_conns):
    """Set-up: generate, start llhscd, open and prime one connection per
    line. Returns (daemon, clients, manifest)."""
    manifest = generate("session-edits", args.seed,
                        os.path.join(work, "inputs"), n_conns)
    cache_dir = fresh_dir(os.path.join(work, "qcache"))
    daemon = Daemon(tools, work)
    clients = []
    try:
        for entry in manifest["inputs"][:n_conns]:
            client = Client(Connection(daemon.path), entry,
                            os.path.abspath(cache_dir))
            client.prime()
            clients.append(client)
    except BaseException:
        for c in clients:
            c.conn.close()
        daemon.stop()
        raise
    return daemon, clients, manifest


def close_session(daemon, clients):
    for c in clients:
        c.conn.close()
    daemon.stop()


def run_session_workload(args, tools, work):
    n_conns = len(os.sched_getaffinity(0))  # one connection per core

    def setup(r, last):
        round_work = fresh_dir(os.path.join(work, "round%d" % r))
        daemon, clients, _ = start_session_daemon(tools, args, round_work,
                                                  n_conns)
        if not last:
            close_session(daemon, clients)
            return None
        return daemon, clients

    setup_s, (daemon, clients) = timed_setups(SETUP_ROUNDS["session-edits"],
                                              setup)
    tally = Tally()
    try:
        start = time.perf_counter()
        errors = []

        def loop(client):
            try:
                while time.perf_counter() - start < args.seconds:
                    ok, why, ms, _, _, _ = client.step()
                    tally.record(ms, ok, why)
            except Exception as e:  # a broken connection fails the run
                errors.append(repr(e))

        threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise BenchError("client failed: " + errors[0])
        peak = daemon.peak_rss_mb()
    finally:
        close_session(daemon, clients)
    metrics = e2e_metrics(setup_s, tally, elapsed, peak)
    return tally, metrics, {"connections": n_conns}


def trace_session_workload(args, tools, work):
    """One connection, sequential: time each round trip against the daemon
    while recording the exact request sequence, then replay it in-process
    with perfbench_layers."""
    tally = Tally()
    daemon, clients, _ = start_session_daemon(tools, args, work, 1)
    client = clients[0]
    client.sequential = True
    # The replay starts from an empty store and cache: lead with the
    # priming requests the daemon saw, untimed on both sides.
    records = [{"request": r, "edited": "", "timed": False}
               for r in client.primed]
    rtts = []
    costs = {"hits": 0, "misses": 0, "derives": 0, "unit_checks": 0}
    edits = 0
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds / 3.0:
            ok, why, ms, request, edited, reply = client.step()
            tally.record(ms, ok, why)
            rtts.append(ms)
            records.append({"request": request, "edited": edited,
                            "timed": True})
            if edited:
                edits += 1
                cost = reply["result"]["cost"]
                for k in costs:
                    costs[k] += cost[k]
    finally:
        close_session(daemon, clients)
    requests = os.path.join(work, "requests.jsonl")
    with open(requests, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    layers = run_layers(tools, ["session", "%.3f" % (args.seconds / 3.0),
                                fresh_dir(os.path.join(work, "layer-cache")),
                                requests])
    metrics = dict(layers["metrics"])
    # Both are per-op means over the same timed requests (the replay's
    # per-op figures share one divisor, so their ratio is the mean).
    inprocess = metrics["server.inprocess_ms"] / metrics["server.timed_ops"]
    metrics["server.overhead_ms"] = statistics.mean(rtts) - inprocess
    looked_up = costs["hits"] + costs["misses"]
    metrics["server.store_hit_ratio"] = (costs["hits"] / looked_up
                                         if looked_up else 0.0)
    metrics["server.derives_per_edit"] = costs["derives"] / max(edits, 1)
    metrics["server.unit_checks_per_edit"] = (costs["unit_checks"] /
                                              max(edits, 1))
    return tally, layers, metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def run_one(workload, args, tools, st):
    work = fresh_dir(os.path.join(BUILD, "w-%s-%d" % (workload, os.getpid())))
    try:
        if args.trace:
            if workload == "session-edits":
                tally, layers, raw = trace_session_workload(args, tools, work)
            else:
                tally, layers, raw = trace_cli_workload(workload, args,
                                                        tools, work)
            declared = PER_LAYER
            values = {name: float(raw.get(name, 0.0)) for name in declared}
            if layers["mismatches"]:
                tally.failed += layers["mismatches"]
                tally.first_failure = tally.first_failure or \
                    "; ".join(layers["notes"][:3])
            extra = {"replay_ops": layers["ops"],
                     "replay_mismatches": layers["mismatches"]}
        else:
            if workload == "session-edits":
                tally, values, extra = run_session_workload(args, tools, work)
            else:
                tally, values, extra = run_cli_workload(workload, args,
                                                        tools, work)
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print_block(workload, args, st, tally, metrics, extra)
    write_result(workload, args, st, result, extra)
    return result


def print_block(workload, args, st, tally, metrics, extra):
    print("# llhsc benchmark: workload=%s seed=%d seconds=%g trace=%d" % (
        workload, args.seed, args.seconds, args.trace))
    print("# host: nproc=%s cpu=%s | commit: %s | llhsc build type: %s "
          "(cmake cache: %r)" % (
              st["host"]["nproc"], st["host"]["cpu"], st["commit"],
              st["build"]["llhsc_build_type"],
              st["build"]["cmake_cache_build_type"]))
    samples = len(tally.latencies)
    for name, m in metrics.items():
        note = ""
        if name.startswith("latency_ms"):
            note = "  (n=%d)" % samples
        print("%-36s %14.4f %s%s" % (name, m["value"], m["unit"], note))
    if not args.trace:
        print("%-36s %14.4f %s  (%d/%d)" % (
            "fail_ratio", tally.failed / max(tally.attempted, 1), "ratio",
            tally.failed, tally.attempted))
    for k, v in extra.items():
        print("# %s: %s" % (k, v))
    if tally.first_failure:
        print("# first failure: %s" % tally.first_failure)


def write_result(workload, args, st, result, extra):
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    rows = [{"workload": workload, "layer": name.split(".", 1)[0],
             "metric": name, "value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()]
    doc = dict(st, workload=workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, correct=result["correct"],
               attempted=result["attempted"], failed=result["failed"],
               extra=extra, rows=rows)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json" % (
        workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        tools = build()
        st = stamp()
        if args.workload != "all":
            result = run_one(args.workload, args, tools, st)
        else:
            results = {w: run_one(w, args, tools, st) for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {"%s/%s" % (w, name): m
                            for w, r in results.items()
                            for name, m in r["metrics"].items()}}
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
