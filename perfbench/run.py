#!/usr/bin/env python3
"""Layered benchmark of the wet toolchain (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

It builds `wet` and the in-process helper `perfbench/probe.exe` from
source with dune, drives the shipped `wet` program from this one
load-generating process, checks every answer it timed, and prints a
report whose last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics from the traced layer ledger.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WET = os.path.join("_build", "default", "bin", "wet_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
BENCH_DIR = "perfbench"
WORK_ROOT = os.path.join(BENCH_DIR, ".work")
OUT_DIR = os.path.join(BENCH_DIR, ".out")

WORKLOADS = ("ingest", "ingest-durable", "serve-point", "serve-scan")

# A trace request with this limit returns the whole trace.
UNBOUNDED = 1_000_000_000

# serve-point: two programs, each at its timing scale and a quarter of
# it, so trace lengths lie 4x apart. Four containers fit the daemon's
# default 4-slot cache: every request after set-up is a hit.
POINT_CONTAINERS = (("099.go", 11), ("099.go", 45),
                    ("197.parser", 225), ("197.parser", 900))

# serve-scan: the skew. A block visits every container once, in seeded
# order, and asks it for all its whole-trace answers in a row. These
# programs (the first three in the paper's order) are asked for every
# trace kind twice per visit, the other six once. Between two visits of
# a container the block visits the eight others, more than the 4 cache
# slots hold, so each visit's first request loads the container and the
# rest hit. The weights are fixed so that a block holds the same work
# for every seed.
SCAN_HOT = ("099.go", "126.gcc", "130.li")

# A daemon's speed on this kind of work varies from process to process
# by up to a fifth, and stays put for the process's life. So a serve
# run is served by a fresh daemon for every stretch of this many blocks
# (serve-point) or visits (serve-scan), and each run averages several.
POINT_BLOCKS_PER_DAEMON = 6
SCAN_VISITS_PER_DAEMON = 3

# Discarded warm-up builds per ingest run; setup_s is their median.
SETUP_REPS = 5
# Processes the untimed answer checks may use at once.
CHECK_JOBS = max(1, min(2, os.cpu_count() or 1))
# The ingest workloads build every program at least this often per run.
# The nine programs' build times form clusters with gaps between them;
# with one build each, the median is the slowest build of a cluster and
# jumps to the next cluster when one build is slow. With two, it falls
# between the two builds of one program.
MIN_ROUNDS = 2

# The tail percentile of each workload: the highest one that a run of
# the benchmark's run_seconds leaves MIN_BEYOND samples beyond. Two
# rounds of nine builds cannot do that for any percentile above the
# median; the ingest workloads report p75, with the count beyond it.
TAIL_PERCENTILE = {"ingest": 75, "ingest-durable": 75,
                   "serve-point": 90, "serve-scan": 75}
MIN_BEYOND = 10
# The traced build's spans must cover its wall to within this share.
LEDGER_TOLERANCE = 0.02
# A set-up shorter than this is a stub, not set-up work.
MIN_SETUP_S = 0.01


def log(msg):
    print(msg, flush=True)


class BenchError(Exception):
    """The benchmark cannot run; it exits without printing a result."""


def fail(msg):
    raise BenchError(msg)


# daemons still running, stopped on every way out of run_main()
LIVE = []


# ---------------------------------------------------------------- build


def build_programs():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run from the root of a wet source checkout "
             "(dune-project, lib/ and bin/ not found)")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/wet_cli.exe",
                        "./perfbench/probe.exe"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not (os.path.isfile(WET)
                                 and os.path.isfile(PROBE)):
        fail("build failed (dune exit %d)" % r.returncode)


def bundled_programs():
    """(name, timing scale) of every bundled program, in the paper's
    order, as `wet benchmarks` lists them."""
    out = subprocess.run([WET, "benchmarks"], capture_output=True,
                         text=True, check=True).stdout
    progs = [(m.group(1), int(m.group(3))) for m in
             re.finditer(r"^(\d+\.\w+)\s+(\d+)\s+(\d+)\s", out, re.M)]
    if len(progs) != 9:
        fail("expected nine bundled programs, `wet benchmarks` lists %d"
             % len(progs))
    return progs


# ---------------------------------------------------------------- stats


def percentile(samples, p):
    """Nearest-rank percentile and how many samples lie beyond it."""
    xs = sorted(samples)
    v = xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]
    return v, sum(1 for x in xs if x > v)


def tail(workload, samples):
    """(value, percentile, samples beyond it) of the workload's tail."""
    p = TAIL_PERCENTILE[workload]
    v, beyond = percentile(samples, p)
    return v, p, beyond


def md5_text(lines):
    return hashlib.md5("\n".join(lines).encode()).hexdigest()


def md5_file(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- host


def host_facts():
    try:
        ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                               capture_output=True, text=True).stdout.strip()
    except OSError:
        ocaml = "unknown"
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    if commit is None:
        # not a git checkout: identify the sources by their content
        h = hashlib.md5()
        for top in ("lib", "bin", BENCH_DIR):
            for d, dirs, files in sorted(os.walk(top)):
                dirs[:] = sorted(x for x in dirs if not x.startswith("."))
                for f in sorted(files):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    h.update(md5_file(p).encode())
        commit = "source-md5:" + h.hexdigest()
    return {"nproc": os.cpu_count(), "ocaml": ocaml or "unknown",
            "commit": commit, "python": platform.python_version()}


def loadavg():
    return "%.2f/%.2f/%.2f" % os.getloadavg()


# ---------------------------------------------------------------- processes


def run_timed(cmd, work):
    """Run cmd to completion: (seconds, exit code, stdout, max RSS kB)."""
    with open(os.path.join(work, "child.err"), "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        dt = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, out.decode(errors="replace"), ru.ru_maxrss


def parse_probe(text):
    return [json.loads(l) if l.startswith("{") else l
            for l in text.splitlines()]


def probe(*args):
    r = subprocess.run([PROBE] + list(args), capture_output=True, text=True)
    if r.returncode != 0:
        fail("probe %s failed: %s" % (args[0], r.stderr.strip()))
    return parse_probe(r.stdout)


def deal(items, key=lambda x: x):
    """Deal items to CHECK_JOBS shares round-robin by key, so that all
    items with one key land in one share."""
    keys = sorted({key(x) for x in items})
    job = {k: i % CHECK_JOBS for i, k in enumerate(keys)}
    return [[x for x in items if job[key(x)] == i]
            for i in range(CHECK_JOBS)]


def probe_split(work, shares, argv_of):
    """Check work outside any timed interval: run the probe over each
    share at once, one process each, and return their output lines,
    share after share."""
    shares = [s for s in shares if s]
    procs = []
    try:
        for i, share in enumerate(shares):
            out = open(os.path.join(work, "probe-%d.out" % i), "w+")
            err = open(os.path.join(work, "probe-%d.err" % i), "w+")
            procs.append((subprocess.Popen([PROBE] + argv_of(i, share),
                                           stdout=out, stderr=err), out, err))
        lines = []
        for p, out, err in procs:
            if p.wait() != 0:
                err.seek(0)
                fail("probe failed: %s" % err.read().strip())
            out.seek(0)
            lines += parse_probe(out.read())
        return lines
    finally:
        for p, out, err in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
            out.close()
            err.close()


def wet_build_cmd(name, scale, out, journal=None):
    cmd = [WET, "build", name, "--scale", str(scale), "--tier2", "-o", out]
    if journal:
        cmd += ["--checkpoint", journal]
    return cmd


class Daemon:
    """A `wet serve SOCKET` process and one closed-loop connection."""

    def __init__(self, work):
        self.sock_path = os.path.join(work, "serve.sock")
        self.err = open(os.path.join(work, "serve.err"), "wb")
        self.proc = subprocess.Popen([WET, "serve", self.sock_path],
                                     stdout=subprocess.DEVNULL,
                                     stderr=self.err)
        self.sock = None
        self.next_id = 0
        LIVE.append(self)
        deadline = time.monotonic() + 30
        while self.sock is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.close()
                fail("wet serve did not start")
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(self.sock_path)
                self.sock = s
            except OSError:
                s.close()
                time.sleep(0.005)

    def call_raw(self, verb, wet=None, params=None):
        """Send one request; return (request line, seconds, response)."""
        self.next_id += 1
        req = {"id": self.next_id, "verb": verb}
        if wet is not None:
            req["wet"] = wet
        if params:
            req["params"] = params
        line = json.dumps(req)
        t0 = time.perf_counter()
        self.sock.sendall(line.encode() + b"\n")
        chunks = []
        while True:
            b = self.sock.recv(1 << 20)
            if not b:
                raise ConnectionError("wet serve closed the connection")
            chunks.append(b)
            # a response is one JSON line: its only newline ends it
            if b.endswith(b"\n"):
                break
        dt = time.perf_counter() - t0
        return line, dt, b"".join(chunks)

    def call(self, verb, wet=None, params=None):
        _, _, raw = self.call_raw(verb, wet, params)
        r = json.loads(raw)
        if not r.get("ok"):
            fail("%s request failed: %s" % (verb, r.get("error")))
        return r

    def proc_stat(self):
        """(utime + stime in seconds, VmHWM in kB) of the daemon."""
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        hwm = 0
        with open("/proc/%d/status" % self.proc.pid) as f:
            for l in f:
                if l.startswith("VmHWM:"):
                    hwm = int(l.split()[1])
        return cpu, hwm

    def close(self):
        if self in LIVE:
            LIVE.remove(self)
        try:
            if self.sock is not None and self.proc.poll() is None:
                self.call("shutdown")
            self.proc.wait(timeout=15)
        except Exception:
            self.proc.kill()
            self.proc.wait()
        finally:
            if self.sock is not None:
                self.sock.close()
            self.err.close()


# ---------------------------------------------------------------- workloads


def program_order(rng, progs):
    order = list(progs)
    rng.shuffle(order)
    return order


def container_path(work, name, scale):
    return os.path.join(work, "%s-%d.wet" % (name, scale))


def serve_containers(workload, progs):
    if workload == "serve-point":
        return list(POINT_CONTAINERS)
    return list(progs)


def point_block(rng, containers):
    """A serve-point block: every container asked each point query
    once, in seeded order. containers: [(path, name, path_execs)]."""
    block = []
    for path, name, execs in containers:
        for kind in ("cf", "values", "addresses"):
            block.append(("trace", path, {"kind": kind, "limit": "16"}))
        block.append(("at", path, {"ts": str(rng.randint(1, execs))}))
    rng.shuffle(block)
    return block


def scan_visits(rng, containers):
    """A serve-scan block: one visit per container; a visit is the list
    of that container's whole-trace requests. Visits come in groups of
    SCAN_VISITS_PER_DAEMON containers in the paper's order, one daemon
    per group, so the containers a daemon holds (and its peak memory)
    do not depend on the seed. The seed orders the groups and the
    visits within each."""
    k = SCAN_VISITS_PER_DAEMON
    groups = [list(containers[i:i + k]) for i in range(0, len(containers), k)]
    rng.shuffle(groups)
    order = []
    for group in groups:
        rng.shuffle(group)
        order += group
    visits = []
    for path, name, _ in order:
        reps = 2 if name in SCAN_HOT else 1
        visit = [("trace", path, {"kind": kind, "limit": str(UNBOUNDED)})
                 for _ in range(reps) for kind in ("cf", "values", "addresses")]
        # every bundled program prints one output: index 0 is the only
        # output index to draw
        visit.append(("slice", path, {"output": "0"}))
        visits.append(visit)
    return visits


def serve_segments(workload, rng, containers):
    """Yield (requests, ends_block): the stretches of the request
    sequence, each served by one fresh daemon."""
    while True:
        if workload == "serve-point":
            yield [r for _ in range(POINT_BLOCKS_PER_DAEMON)
                   for r in point_block(rng, containers)], True
        else:
            visits = scan_visits(rng, containers)
            for i in range(0, len(visits), SCAN_VISITS_PER_DAEMON):
                yield (sum(visits[i:i + SCAN_VISITS_PER_DAEMON], []),
                       i + SCAN_VISITS_PER_DAEMON >= len(visits))


def sequence_digest(items):
    return hashlib.md5(json.dumps(items, sort_keys=True).encode()).hexdigest()


def request_line(verb, path, params):
    return json.dumps({"id": 0, "verb": verb, "wet": path, "params": params})


def check_answers(work, requests, digests):
    """Compare each response digest with the in-process Render answer;
    return how many differ."""
    shares = deal(sorted(set(requests)), key=lambda r: r[1])

    def argv(i, share):
        reqfile = os.path.join(work, "answers-%d.jsonl" % i)
        with open(reqfile, "w") as f:
            for r in share:
                f.write(request_line(r[0], r[1], dict(r[2])) + "\n")
        return ["answers", reqfile]

    ref = dict(zip(sum(shares, []), probe_split(work, shares, argv)))
    return sum(1 for r, d in zip(requests, digests) if d != ref[r])


def req_key(verb, path, params):
    return (verb, path, tuple(sorted(params.items())))


def run_ingest(args, work, progs, rng_factory, report):
    durable = args.workload == "ingest-durable"

    # set-up: discarded warm-up builds (compile, analysis, build, save)
    warm_name, warm_scale = progs[0]
    setups = []
    for i in range(SETUP_REPS):
        out = os.path.join(work, "warmup.wet")
        journal = os.path.join(work, "warmup.journal") if durable else None
        dt, code, _, _ = run_timed(
            wet_build_cmd(warm_name, warm_scale, out, journal), work)
        if code != 0:
            fail("warm-up build exited %d" % code)
        setups.append(dt)
        for p in (out, journal):
            if p and os.path.exists(p):
                os.remove(p)
    setup_s = statistics.median(setups)

    rng = rng_factory()
    lat, stmts, disk, rss, digests, order = [], [], [], [], [], []
    failed = 0
    t0 = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds:
        rounds += 1
        for name, scale in program_order(rng, progs):
            out = container_path(work, name, scale)
            journal = out + ".journal" if durable else None
            dt, code, stdout, maxrss = run_timed(
                wet_build_cmd(name, scale, out, journal), work)
            order.append(name)
            lat.append(dt)
            m = re.search(r"(\d+) statements ->", stdout)
            if code != 0 or m is None:
                failed += 1
                digests.append(None)
                stmts.append(0)
                disk.append(0)
            else:
                stmts.append(int(m.group(1)))
                disk.append(os.path.getsize(out)
                            + (os.path.getsize(journal) if durable else 0))
                digests.append(md5_file(out))
            rss.append(maxrss)
            for p in (out, journal):
                if p and os.path.exists(p):
                    os.remove(p)
    wall = time.perf_counter() - t0

    # every container must equal a reference built in-process
    ref = {r["spec"].rsplit(":", 1)[0]: r["md5"] for r in
           probe_split(work, deal(["%s:%d" % p for p in progs]),
                       lambda i, share: ["ref", work] + share)}
    for name, d in zip(order, digests):
        if d is not None and d != ref[name]:
            failed += 1

    rng2 = rng_factory()
    replay = []
    while len(replay) < len(order):
        replay += [n for n, _ in program_order(rng2, progs)]
    report["sequence"] = (sequence_digest(order),
                          sequence_digest(replay[:len(order)]))
    report["setup_detail"] = "median of %d warm-up builds of %s: %s s" % (
        SETUP_REPS, warm_name, ", ".join("%.3f" % s for s in setups))
    return {
        "attempted": len(lat), "failed": failed, "latencies": lat,
        "setup_s": setup_s,
        "stmts_per_s": sum(stmts) / sum(lat),
        "requests_per_s": len(lat) / wall,
        "peak_mb": max(rss) / 1024,
        "disk_bytes_per_stmt": sum(disk) / max(1, sum(stmts)),
    }


def build_containers(work, specs):
    """Build and save the serve containers with `wet build`:
    ([(path, name, stmts, bytes)], seconds)."""
    t0 = time.perf_counter()
    built = []
    for name, scale in specs:
        out = container_path(work, name, scale)
        _, code, stdout, _ = run_timed(wet_build_cmd(name, scale, out), work)
        m = re.search(r"(\d+) statements ->", stdout)
        if code != 0 or m is None:
            fail("container build of %s exited %d" % (name, code))
        built.append((out, name, int(m.group(1)), os.path.getsize(out)))
    return built, time.perf_counter() - t0


def ready_daemon(work, preopen):
    """Start `wet serve`, open each container in `preopen` and warm it
    up: (daemon, {path: path executions}). serve-scan opens nothing
    ahead: the load on a visit's first request is part of what it
    measures."""
    daemon = Daemon(work)
    execs = {}
    daemon.call("health")
    for path in preopen:
        daemon.call("open", path)
        r = daemon.call("at", path)
        execs[path] = int(re.match(r"t=\d+ of (\d+):", r["lines"][0]).group(1))
        daemon.call("trace", path, {"kind": "cf", "limit": "16"})
    return daemon, execs


def run_serve(args, work, progs, rng_factory, report):
    point = args.workload == "serve-point"
    built, build_s = build_containers(
        work, serve_containers(args.workload, progs))
    preopen = [b[0] for b in built] if point else []
    stmts_of = {path: stmts for path, _, stmts, _ in built}
    cycles, lat, requests, digests, seq = [], [], [], [], []
    failed, hwm_kb, measured = 0, 0, 0.0
    containers = segments = None
    while True:
        t0 = time.perf_counter()
        daemon, execs = ready_daemon(work, preopen)
        cycles.append(time.perf_counter() - t0)
        try:
            if segments is None:
                containers = [(b[0], b[1], execs.get(b[0])) for b in built]
                segments = serve_segments(args.workload, rng_factory(),
                                          containers)
            stretch, ends_block = next(segments)
            t0 = time.perf_counter()
            for verb, path, params in stretch:
                _, dt, raw = daemon.call_raw(verb, path, params)
                lat.append(dt)
                seq.append([verb, path, params])
                requests.append(req_key(verb, path, params))
                r = json.loads(raw)
                if not r.get("ok"):
                    failed += 1
                    digests.append(None)
                else:
                    digests.append(md5_text(r.get("lines", [])))
            measured += time.perf_counter() - t0
            hwm_kb = max(hwm_kb, daemon.proc_stat()[1])
        finally:
            daemon.close()
        if ends_block and measured >= args.seconds:
            break

    failed += check_answers(work, requests, digests)

    replay = []
    for stretch, _ in serve_segments(args.workload, rng_factory(),
                                     containers):
        if len(replay) >= len(seq):
            break
        replay += [list(r) for r in stretch]
    report["sequence"] = (sequence_digest(seq),
                          sequence_digest(replay[:len(seq)]))
    report["setup_detail"] = (
        "container builds %.3f s + median of %d daemon start/open/warm-up "
        "cycles (%.3f-%.3f s)" % (build_s, len(cycles), min(cycles),
                                  max(cycles)))
    scanned = sum(stmts_of[r[1]] for r in requests)
    return {
        "attempted": len(lat), "failed": failed, "latencies": lat,
        "setup_s": build_s + statistics.median(cycles),
        "stmts_per_s": scanned / sum(lat),
        "requests_per_s": len(lat) / measured,
        "peak_mb": hwm_kb / 1024,
        "disk_bytes_per_stmt": (sum(b for _, _, _, b in built)
                                / sum(s for _, _, s, _ in built)),
    }


# ---------------------------------------------------------------- traced run


def traced_requests(workload, rng, containers):
    """The traced run's requests: one block of the workload's own mix,
    plus one request of each kind the mix lacks on the first container,
    so that every query layer is measured on every workload."""
    if workload == "serve-scan":
        block = sum(scan_visits(rng, containers), [])
    else:
        block = point_block(rng, containers)
    kinds = {(v, p.get("kind")) for v, _, p in block}
    path, _, execs = containers[0]
    extra = [("trace", path, {"kind": k, "limit": "16"})
             for k in ("cf", "values", "addresses")
             if ("trace", k) not in kinds]
    if ("at", None) not in kinds:
        extra.append(("at", path, {"ts": str(rng.randint(1, execs))}))
    if ("slice", None) not in kinds:
        extra.append(("slice", path, {"output": "0"}))
    return block + extra


def run_traced(args, work, progs, rng_factory, report):
    rng = rng_factory()
    if args.workload.startswith("serve"):
        specs = serve_containers(args.workload, progs)
    else:
        specs = program_order(rng, progs)
    build = probe("ledger-build", work,
                  *["%s:%d" % s for s in specs])[0]
    metrics = dict(build["metrics"])
    failed = sum(1 for c in build["containers"]
                 if not c["same_as_reference"])
    containers = [(c["path"], c["spec"].rsplit(":", 1)[0], c["path_execs"])
                  for c in build["containers"]]
    if args.workload.startswith("ingest"):
        containers = containers[:4]
    block = traced_requests(args.workload, rng, containers)

    distinct = list(dict.fromkeys(req_key(*r) for r in block))
    reqfile = os.path.join(work, "ledger.jsonl")
    with open(reqfile, "w") as f:
        for verb, path, params in distinct:
            f.write(request_line(verb, path, dict(params)) + "\n")
    query = probe("ledger-query", reqfile)[0]
    metrics.update(query["metrics"])
    if not query["same"]:
        failed += 1
    answer = dict(zip(distinct, query["answers"]))
    render_ms = dict(zip(distinct, query["untraced_ms"]))

    # the daemon pass, observed from outside
    daemon, _ = ready_daemon(work, [] if args.workload == "serve-scan"
                             else [c[0] for c in containers])
    try:
        floor = statistics.median(daemon.call_raw("health")[1]
                                  for _ in range(21))
        before = daemon.call("health")["data"]["cache"]
        cpu0, _ = daemon.proc_stat()
        t0 = time.perf_counter()
        rtts, sizes, wire = [], [], []
        for verb, path, params in block:
            _, dt, raw = daemon.call_raw(verb, path, params)
            r = json.loads(raw)
            k = req_key(verb, path, params)
            if not r.get("ok") or md5_text(r.get("lines", [])) != answer[k]:
                failed += 1
            rtts.append(dt)
            sizes.append(len(raw))
            wire.append(dt * 1e3 - render_ms[k])
        wall = time.perf_counter() - t0
        cpu1, _ = daemon.proc_stat()
        after = daemon.call("health")["data"]["cache"]
    finally:
        daemon.close()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics.update({
        "serve.requests": len(block),
        "serve.floor_ms": floor * 1e3,
        "serve.rtt_ms": statistics.mean(rtts) * 1e3,
        "serve.wire_ms": statistics.mean(wire),
        "serve.response_bytes": statistics.mean(sizes),
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.cache_loads": misses,
        "serve.daemon_busy_frac": (cpu1 - cpu0) / wall,
    })

    report["ledger"] = (
        "build spans cover %.4f%% of the traced build wall "
        "(tolerance %.1f%%); tracing overhead: build %+.1f ms "
        "(traced %.1f ms vs untraced %.1f ms per build), query %+.2f ms "
        "per request" % (
            100 * (1 - metrics["build.unaccounted_frac"]),
            100 * LEDGER_TOLERANCE, metrics["build.trace_overhead_ms"],
            metrics["build.traced_ms"], metrics["build.untraced_ms"],
            metrics["query.trace_overhead_ms"]))
    report["ledger_ok"] = metrics["build.unaccounted_frac"] <= LEDGER_TOLERANCE
    for name in ("build-spans.jsonl", "ledger-spans.jsonl"):
        src = os.path.join(work, name)
        if os.path.exists(src):
            shutil.copy(src, os.path.join(
                OUT_DIR, "%s-%s" % (args.workload, name)))
    rng2 = rng_factory()
    if not args.workload.startswith("serve"):
        program_order(rng2, progs)
    report["sequence"] = (
        sequence_digest(block),
        sequence_digest(traced_requests(args.workload, rng2, containers)))
    return metrics, len(block) + len(specs), failed


# ---------------------------------------------------------------- main


def load_contract():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # a terminated run still stops its daemons and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        run_main(args)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)


def run_main(args):
    contract = load_contract()
    build_programs()
    host = host_facts()
    load0 = loadavg()
    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    progs = bundled_programs()

    def rng_factory():
        return random.Random("%s/%d" % (args.workload, args.seed))

    report = {}
    checks = []
    try:
        if args.trace:
            values, attempted, failed = run_traced(args, work, progs,
                                                   rng_factory, report)
            wanted = contract["per_layer"]
            checks.append(("layers add up (%s)" % report["ledger"],
                           report["ledger_ok"]))
        else:
            run = (run_ingest if args.workload.startswith("ingest")
                   else run_serve)
            res = run(args, work, progs, rng_factory, report)
            attempted, failed = res["attempted"], res["failed"]
            lat_ms = [x * 1e3 for x in res["latencies"]]
            p50 = statistics.median(lat_ms)
            tail_ms, tail_p, beyond = tail(args.workload, lat_ms)
            values = dict(res, p50_ms=p50, tail_ms=tail_ms)
            wanted = contract["end_to_end"]
            report["tail"] = "p%d of n=%d samples, %d beyond it" % (
                tail_p, len(lat_ms), beyond)
            checks.append(("tail_ms >= p50_ms", tail_ms >= p50))
            if args.workload.startswith("serve"):
                checks.append((">= %d samples beyond the tail percentile"
                               % MIN_BEYOND, beyond >= MIN_BEYOND))
            checks.append(("setup_s >= %g s (not a stub)" % MIN_SETUP_S,
                           res["setup_s"] >= MIN_SETUP_S))
    finally:
        for d in list(LIVE):
            d.close()
        shutil.rmtree(work, ignore_errors=True)

    seq_a, seq_b = report["sequence"]
    checks.append(("the seed fixes the operation sequence (%s)" % seq_a,
                   seq_a == seq_b))
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            checks.append(("metric %s is measured" % m["name"], False))
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    log("perfbench %s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    log("host: nproc=%s loadavg %s -> %s ocaml=%s python=%s commit=%s" % (
        host["nproc"], load0, loadavg(), host["ocaml"], host["python"],
        host["commit"]))
    if "setup_detail" in report:
        log("set-up: " + report["setup_detail"])
    if "tail" in report:
        log("tail_ms: " + report["tail"])
    for name, m in metrics.items():
        log("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    log("operations: %d attempted, %d failed" % (attempted, failed))
    for what, ok in checks:
        log("check %-4s %s" % ("ok" if ok else "FAIL", what))
    correct = failed == 0 and all(ok for _, ok in checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
