#!/usr/bin/env python3
"""cyclebench: end-to-end and per-layer benchmark of the cyclestream engine.

One run of one workload:

    python3 cyclebench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the repository (Release) and the harness under .bench_build/, makes
the workload's fixture from the seed with the repository's own generator
(`cyclestream_cli generate`, `edge2bin`), and then, outside the timed
region, cross-checks the harness against `cyclestream_cli ... --json_det_out`
and runs one traced repetition that replays every query standalone. Timed
repetitions follow, each a fresh harness process, until S seconds have
passed (at least MIN_REPS; S defaults to BENCHMARK.json's run_seconds),
interleaved with at least SETUP_REPS set-up-only harness processes. The
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end medians, with --trace 1 the per-layer numbers of the
traced repetition.

    python3 cyclebench/run.py --steadiness [--runs 10]

runs every workload (or those named with --workload) as two independent sets
of runs, one seed per run, and prints each end-to-end metric's median,
quartiles, spread and set-to-set difference against BENCHMARK.json's bounds.

    python3 cyclebench/run.py --write-goldens

records the default-seed estimates of every workload in goldens.json.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(ROOT, ".bench_build", "cyclebench")
REPO_BUILD = os.path.join(WORK, "repo")
HARNESS_BUILD = os.path.join(WORK, "harness")
CLI = os.path.join(REPO_BUILD, "tools", "cyclestream_cli")
EDGE2BIN = os.path.join(REPO_BUILD, "tools", "edge2bin")
HARNESS = os.path.join(HARNESS_BUILD, "cyclebench_harness")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 1
EPSILON = 0.2
THREADS = 2
MIN_REPS = 3
# Set-up-only processes per run, two before each timed repetition and the
# rest after the last: set-up takes 30-130 ms and jitters by ±20% between
# processes and over seconds, so setup_s is the median of these and of the
# timed repetitions' set-ups, sampled across the whole run.
SETUP_REPS = 16
SETUPS_PER_REP = 2
STEADINESS_SETS = 2
# Accuracy check on the in-regime workloads: Thm 4.3a / 5.7 promise (1 ± ε)
# per query with constant probability. Over 60 seeds × 16 queries each of
# adj-f2 and arb-f2 (file order) on G(1000, 0.2) the relative error was
# near-normal (mean -0.07 / -0.04, sd 0.14 / 0.15, worst 0.456 = 2.3ε).
# 4ε lies more than 5 sd from the mean, so a healthy query fails with odds
# below 1e-6, while an estimate that collapses, flips sign or is off by
# more than 1.8× fails.
REL_ERR_TOLERANCE = 4 * EPSILON
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # Stop starting repetitions past this point.

# Turnstile specs, ordered so the two broker threads (slot s → thread s mod
# 2) balance: the windowed triangle query and the plain triangle query on
# one thread, the two 4-cycle queries on the other.
CHURN_SPECS = """\
# turnstile-churn: four turnstile queries over one insert/delete stream
name=tri-window kind=turnstile-f2-triangle window=65536 window_buckets=8
name=c4 kind=turnstile-f2-c4
name=tri kind=turnstile-f2-triangle
name=c4-decay kind=turnstile-f2-c4 decay_epoch=32768 decay_log2=1
"""

# The one table of workloads: fixture recipe, CLI front end and flags. The
# harness and the CLI cross-check receive the same argument list.
WORKLOADS = {
    "edge-sparse-ba": {
        "fixture": {"model": "ba", "n": 50000, "deg": 5},
        "front": "sweep",
        "flags": ["--algorithms", "arb-f2,random-order", "--queries", "2",
                  "--order", "shuffled"],
        "in_regime": False,
    },
    "adjacency-dense-gnp": {
        "fixture": {"model": "gnp", "n": 1000, "p": 0.2},
        "front": "sweep",
        "flags": ["--algorithms", "adj-f2", "--queries", "8"],
        "in_regime": True,
    },
    "turnstile-churn": {
        "fixture": {"model": "ba", "n": 10000, "deg": 5, "churn": True},
        "front": "serve",
        "flags": [],
        "spec": CHURN_SPECS,
        "in_regime": False,
    },
    "shard-ckpt-gnp": {
        "fixture": {"model": "gnp", "n": 1000, "p": 0.2},
        "front": "shard",
        "flags": ["--algorithms", "arb-f2", "--queries", "2", "--shards", "4",
                  "--epoch-edges", "16384", "--order", "file",
                  "--launch", "inprocess"],
        "in_regime": True,
    },
}

# End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "items_per_s": "1/s"}


class BenchError(Exception):
    """A failure that stops the run before a result can be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_cmd(argv, log_path=None, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion; returns stdout. Raises BenchError on failure."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out after {timeout}s: {' '.join(argv)}") from e
    if log_path:
        with open(log_path, "a") as f:
            f.write(f"$ {' '.join(argv)}\n{proc.stdout}{proc.stderr}\n")
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def check_layout():
    for rel in ("CMakeLists.txt", "src/engine/broker.h",
                "tools/cyclestream_cli.cc", "tools/edge2bin.cc"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            raise BenchError(f"not a cyclestream checkout: {rel} is missing "
                             f"under {ROOT}")


def build():
    """Builds the repository's CLI tools and the harness (Release)."""
    check_layout()
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(REPO_BUILD, "CMakeCache.txt")):
        run_cmd(["cmake", "-S", ROOT, "-B", REPO_BUILD, *gen,
                 "-DCMAKE_BUILD_TYPE=Release"], log_path, timeout=600)
    run_cmd(["cmake", "--build", REPO_BUILD, "-j", jobs, "--target",
             "cyclestream_cli", "edge2bin"], log_path, timeout=900)
    if not os.path.exists(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
        run_cmd(["cmake", "-S", BENCH_DIR, "-B", HARNESS_BUILD, *gen,
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DCYCLESTREAM_SOURCE_DIR={ROOT}",
                 f"-DCYCLESTREAM_BUILD_DIR={REPO_BUILD}"], log_path,
                timeout=600)
    run_cmd(["cmake", "--build", HARNESS_BUILD, "-j", jobs], log_path,
            timeout=900)
    build_type = cmake_cache(REPO_BUILD).get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing an unoptimised build ({build_type!r})")


def cmake_cache(build_dir):
    values = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith("#"):
                    key, _, rest = line.partition(":")
                    values[key] = rest.partition("=")[2].strip()
    return values


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def churn_updates(text_path, seed):
    """The turnstile-churn transform of an edge list, as update lines.

    Edges are inserted in a seeded shuffled order; after every fourth insert
    one live edge (chosen by the same RNG) is deleted, and every second
    deleted edge is re-inserted after the next four inserts. Every delete
    matches a live edge, as strict v2 ingest requires.
    """
    with open(text_path) as f:
        header = f.readline()
        edges = [tuple(map(int, line.split())) for line in f
                 if line.strip() and not line.startswith("#")]
    num_vertices = int(header.split(":")[1].split()[0])
    rng = random.Random(seed)
    rng.shuffle(edges)
    live, where = [], {}
    updates, pending, deleted = [], [], 0

    def insert(e):
        where[e] = len(live)
        live.append(e)
        updates.append(("+", e))

    for i, e in enumerate(edges, 1):
        insert(e)
        if i % 4:
            continue
        for r in pending:
            insert(r)
        pending = []
        k = rng.randrange(len(live))
        victim = live[k]
        live[k] = live[-1]
        where[live[k]] = k
        live.pop()
        del where[victim]
        updates.append(("-", victim))
        deleted += 1
        if deleted % 2 == 0:
            pending.append(victim)
    for r in pending:
        insert(r)
    return num_vertices, updates


def fixture_key(recipe, seed):
    parts = [f"{k}{recipe[k]}" for k in sorted(recipe)]
    return "-".join(parts + [f"s{seed}"])


def make_fixture(recipe, seed, out_dir):
    """Generates the fixture for `recipe` and `seed` into out_dir.

    Returns the path of the .bin file. Same recipe and seed, same bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    text = os.path.join(out_dir, "graph.txt")
    argv = [CLI, "generate", "--model", recipe["model"], "--seed", str(seed),
            "--out", text]
    for key in ("n", "deg", "p"):
        if key in recipe:
            argv += [f"--{key}", str(recipe[key])]
    run_cmd(argv)
    out = os.path.join(out_dir, "fixture.bin")
    if recipe.get("churn"):
        num_vertices, updates = churn_updates(text, seed)
        turnstile_text = os.path.join(out_dir, "churn.txt")
        with open(turnstile_text, "w") as f:
            f.write(f"# cyclestream turnstile stream: {num_vertices} "
                    f"vertices, {len(updates)} updates\n")
            f.writelines(f"{op} {u} {v}\n" for op, (u, v) in updates)
        run_cmd([EDGE2BIN, "--turnstile", turnstile_text, out])
    else:
        run_cmd([EDGE2BIN, text, out])
    return out


def ensure_fixture(recipe, seed):
    """Cached fixture (built outside any timed region); returns path, digest."""
    out_dir = os.path.join(WORK, "fixtures", fixture_key(recipe, seed))
    path = os.path.join(out_dir, "fixture.bin")
    digest_path = path + ".sha256"
    if os.path.exists(digest_path) and os.path.exists(path):
        with open(digest_path) as f:
            recorded = f.read().strip()
        if sha256(path) == recorded:
            return path, recorded
    shutil.rmtree(out_dir, ignore_errors=True)
    make_fixture(recipe, seed, out_dir)
    digest = sha256(path)
    with open(digest_path, "w") as f:
        f.write(digest + "\n")
    return path, digest


def warm_page_cache(path):
    with open(path, "rb") as f:
        while f.read(1 << 20):
            pass


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def filesystem_type(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def provenance(shard_dir):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    cache_sizes = {}
    for index in ("index2", "index3"):
        level = read_first(os.path.join(cache, index, "level"), "")
        if level:
            cache_sizes[f"L{level}"] = read_first(
                os.path.join(cache, index, "size"))
    cc = cmake_cache(REPO_BUILD)
    compiler = cc.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, cwd=ROOT)
        git = describe.stdout.strip() if describe.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    build_type = cc.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cc.get("CMAKE_CXX_FLAGS", ""),
        cc.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": cache_sizes,
        "compiler": version,
        "cxx_flags": flags,
        "build_type": build_type,
        "git_describe": git or "unknown (not a git checkout)",
        "shard_dir_fs": filesystem_type(shard_dir),
        "threads": THREADS,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def workload_args(name, fixture, seed):
    """The front end and flags shared by the harness and the CLI."""
    w = WORKLOADS[name]
    args = [w["front"], "--graph", fixture, "--seed", str(seed),
            "--threads", str(THREADS), "--epsilon", str(EPSILON), *w["flags"]]
    if "spec" in w:
        spec = os.path.join(WORK, f"{name}.spec")
        with open(spec, "w") as f:
            f.write(w["spec"])
        args += ["--spec", spec]
    if w["front"] == "shard":
        args += ["--shard-dir", os.path.join(WORK, "shard")]
    return args


def cli_estimates(args):
    """The CLI's estimates for the same fixture and specs (untimed)."""
    det = os.path.join(WORK, "cli_det.json")
    if args[0] == "shard":
        shutil.rmtree(os.path.join(WORK, "shard"), ignore_errors=True)
    run_cmd([CLI, *args, "--exact_backend", "dodg", "--json_det_out", det])
    with open(det) as f:
        manifest = json.load(f)
    return {name: q["estimate"] for name, q in manifest["queries"].items()}


def harness(args, mode):
    out = run_cmd([HARNESS, *args, "--mode", mode])
    return json.loads(out)


def load_goldens():
    try:
        with open(GOLDENS) as f:
            return json.load(f)
    except OSError:
        return {}


def span_seconds(trace, name):
    return sum(s["end_s"] - s["start_s"] for s in trace["spans"]
               if s["name"] == name)


def per_layer(trace, wall_median):
    """Per-layer metrics of the traced repetition (0 where not exercised)."""
    queries = trace["queries"]
    construct = sum(q["construct_s"] for q in queries)
    passes = sum(q["pass0_s"] for q in queries)
    finalize = sum(q["finalize_s"] for q in queries)
    items = sum(q["items"] for q in queries)
    dom = max(queries,
              key=lambda q: q["construct_s"] + q["pass0_s"] + q["finalize_s"])
    run_s = span_seconds(trace, "engine.run")
    layers = trace.get("shard_layers", {})
    if layers:
        # In-process workers run one after another: the wave is the sum of
        # the workers, their state loads, the merge fold and finalize.
        critical = layers["worker_s_sum"] + layers["decode_s"] + \
            layers["merge_s"] + finalize
    else:
        # Broker: construct and finalize run on the caller thread; the pass
        # runs query slot s on thread s mod threads.
        by_thread = {}
        for q in queries:
            by_thread[q["thread"]] = by_thread.get(q["thread"], 0) + \
                q["pass0_s"]
        critical = construct + max(by_thread.values()) + finalize
    ingest = span_seconds(trace, "graph.ingest")
    stats = trace["stats"]
    m = {
        "graph.ingest_s": (ingest, "s"),
        "graph.ingest_mb_per_s": (trace["fixture_mb"] / ingest, "MB/s"),
        "graph.build_s": (span_seconds(trace, "graph.build"), "s"),
        "graph.exact_s": (span_seconds(trace, "graph.exact"), "s"),
        "stream.order_s": (span_seconds(trace, "stream.order"), "s"),
        "stream.live_edges_s": (span_seconds(trace, "stream.live_edges"), "s"),
        "core.construct_s": (construct, "s"),
        "core.pass0_s": (passes, "s"),
        "core.finalize_s": (finalize, "s"),
        "core.items_per_s": (items / passes, "1/s"),
        "core.state_mb": (sum(q["state_mb"] for q in queries), "MB"),
        "core.dominant.construct_s": (dom["construct_s"], "s"),
        "core.dominant.pass0_s": (dom["pass0_s"], "s"),
        "core.dominant.finalize_s": (dom["finalize_s"], "s"),
        "core.dominant.items_per_s": (dom["items"] / dom["pass0_s"], "1/s"),
        "core.dominant.state_mb": (dom["state_mb"], "MB"),
        "engine.run_s": (run_s, "s"),
        "engine.critical_path_s": (critical, "s"),
        "engine.overhead_s": (run_s - critical, "s"),
        "engine.items_delivered": (stats["items_delivered"], "count"),
        "engine.physical_passes": (stats["physical_passes"], "count"),
        "engine.queries_rejected": (stats["queries_rejected"], "count"),
        "engine.shard.worker_s_max": (layers.get("worker_s_max", 0.0), "s"),
        "engine.shard.encode_s": (layers.get("encode_s", 0.0), "s"),
        "engine.shard.decode_s": (layers.get("decode_s", 0.0), "s"),
        "engine.shard.merge_s": (layers.get("merge_s", 0.0), "s"),
        "engine.shard.state_mb": (layers.get("state_mb", 0.0), "MB"),
        "engine.shard.checkpoints": (layers.get("checkpoints", 0), "count"),
        "engine.shard.bytes_written_mb": (stats["shard_bytes_written_mb"],
                                          "MB"),
        "engine.shard.workers_recovered": (stats["workers_recovered"],
                                           "count"),
        "util.io.write_atomic_s": (layers.get("write_atomic_s", 0.0), "s"),
        "util.crc32_mb_per_s": (layers.get("crc32_mb_per_s", 0.0), "MB/s"),
        "trace.overhead_s": (trace["wall_s"] - wall_median, "s"),
        "trace.coverage": (trace["top_level_s"] / trace["traced_wall_s"],
                           "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def same(a, b):
    """Bit-for-bit equal estimates (JSON keeps every digit of a double)."""
    return a is not None and b is not None and float(a) == float(b)


def within_tolerance(estimate, exact):
    """The in-regime accuracy check: positive and within REL_ERR_TOLERANCE."""
    return estimate > 0 and abs(estimate - exact) / exact < REL_ERR_TOLERANCE


def run_workload(name, seed, seconds, trace_mode, goldens=None):
    """One benchmark run; returns (result dict, report dict)."""
    start = time.monotonic()
    build()
    w = WORKLOADS[name]
    fixture, digest = ensure_fixture(w["fixture"], seed)
    args = workload_args(name, fixture, seed)
    problems = []

    # Untimed checks: the CLI on the same flags, then the traced repetition,
    # which runs the engine and replays every query standalone.
    cli = cli_estimates(args)
    warm_page_cache(fixture)
    check = harness(args, "trace")
    reference = {q["name"]: float(q["replay_estimate"])
                 for q in check["queries"]}
    if check["mismatches"]:
        problems.append(f"{check['mismatches']} estimate(s) differ between "
                        "the engine, the standalone replay and the broker")
    if check.get("shard_layers") and not check["shard_layers"]["ok"]:
        problems.append("shard layer replay failed")
    for q in check["queries"]:
        if not same(cli.get(q["name"]), reference[q["name"]]):
            problems.append(f"{q['name']}: harness {reference[q['name']]!r} "
                            f"!= CLI {cli.get(q['name'])!r}")
    golden = (goldens if goldens is not None else load_goldens()).get(name)
    if seed == DEFAULT_SEED and golden is not None:
        for qname, value in golden.items():
            if not same(value, reference.get(qname)):
                problems.append(f"{qname}: {reference.get(qname)!r} != "
                                f"golden {value!r}")
    rel_err = {}
    for q in check["queries"]:
        exact = check["exact_triangles" if q["target"] == "triangles"
                      else "exact_c4"]
        rel_err[q["name"]] = abs(reference[q["name"]] - exact) / exact
        if w["in_regime"] and not within_tolerance(reference[q["name"]],
                                                   exact):
            problems.append(f"{q['name']}: estimate {reference[q['name']]!r} "
                            f"vs exact {exact!r}: rel.err "
                            f"{rel_err[q['name']]:.3f}, needs a positive "
                            f"estimate within {REL_ERR_TOLERANCE:.1f}")

    # Every engine execution of a query counts as one attempt: the traced
    # repetition's and each timed repetition's.
    attempted = failed = 0

    setups = []
    reps = []
    rep_start = time.monotonic()
    while (len(reps) < MIN_REPS or time.monotonic() - rep_start < seconds):
        if reps and time.monotonic() - start + reps[-1]["wall_s"] * 1.5 + 2 \
                > RUN_BUDGET_S:
            log(f"cyclebench: time budget hit after {len(reps)} repetitions")
            break
        for _ in range(SETUPS_PER_REP):
            setups.append(harness(args, "setup")["setup_s"])
        warm_page_cache(fixture)
        try:
            reps.append(harness(args, "run"))
        except BenchError as e:
            if not reps:
                raise
            # An aborted repetition fails every query it was running.
            attempted += len(reference)
            failed += len(reference)
            problems.append(f"repetition aborted: {e}")
            break
    while len(setups) < SETUP_REPS:
        setups.append(harness(args, "setup")["setup_s"])
    for run_out in [check] + reps:
        if run_out["stats"]["workers_recovered"]:
            problems.append("a shard worker needed recovery")
        for q in run_out["queries"]:
            attempted += 1
            if not q["ran"]:
                failed += 1
                problems.append(f"{q['name']}: rejected or poisoned")
            elif not same(q["estimate"], reference[q["name"]]):
                failed += 1
                problems.append(f"{q['name']}: engine estimate "
                                f"{q['estimate']!r} != {reference[q['name']]!r}")

    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setups + [r["setup_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "items_per_s": [r["stats"]["items_delivered"] /
                        (r["wall_s"] - r["setup_s"]) for r in reps],
    }
    e2e = {k: {"value": statistics.median(samples[k]), "unit": unit}
           for k, unit in END_TO_END.items()}
    layers = per_layer(check, e2e["wall_s"]["value"]) if trace_mode else {}
    metrics = layers if trace_mode else e2e
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "repetitions": len(reps), "samples": samples,
        "end_to_end": e2e, "per_layer": layers,
        "estimates": reference, "rel_err": rel_err,
        "exact": {"triangles": check["exact_triangles"],
                  "c4": check["exact_c4"]},
        "fixture": {"path": os.path.relpath(fixture, ROOT), "sha256": digest},
        "provenance": provenance(os.path.join(WORK, "shard")),
        "problems": problems, "spans": check.get("spans", []),
    }
    return result, report


def print_summary(result, report):
    prov = report["provenance"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{report['repetitions']} repetitions, fixture "
          f"{report['fixture']['sha256'][:16]}")
    for qname, err in sorted(report["rel_err"].items()):
        print(f"  {qname:<16} estimate {report['estimates'][qname]:<22.17g} "
              f"rel.err {err:.4f}")
    for key, m in result["metrics"].items():
        print(f"  {key:<32} {m['value']:<14.6g} {m['unit']}")
    for p in report["problems"]:
        print(f"  PROBLEM: {p}")
    print("provenance " + json.dumps(prov, sort_keys=True))


# ---------------------------------------------------------------------------
# Steadiness mode
# ---------------------------------------------------------------------------

def spread_stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def steadiness(workloads, runs, seconds, first_seed):
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for name in workloads:
        per_set = []
        for s in range(STEADINESS_SETS):
            values = {k: [] for k in bounds}
            for r in range(runs):
                seed = first_seed + s * runs + r
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload",
                     name, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"], capture_output=True, text=True,
                    cwd=ROOT)
                if out.returncode:
                    ok = False
                    print(f"{name} seed {seed}: exit {out.returncode}\n"
                          f"{out.stderr[-2000:]}")
                    continue
                last = json.loads(out.stdout.strip().splitlines()[-1])
                if not last["correct"] or last["failed"]:
                    ok = False
                    print(f"{name} seed {seed}: NOT CORRECT\n{out.stdout}")
                for k in bounds:
                    values[k].append(last["metrics"][k]["value"])
                log(f"{name} set {s} seed {seed}: " + " ".join(
                    f"{k}={last['metrics'][k]['value']:.4g}" for k in bounds))
            per_set.append({k: spread_stats(v) for k, v in values.items()})
        summary[name] = per_set
        print(f"== {name} ==")
        for k, m in bounds.items():
            line = f"  {k:<14} bound {m['bound']:.2f}"
            for i, st in enumerate(per_set):
                line += (f" | set{i} median {st[k]['median']:.5g} "
                         f"q1 {st[k]['q1']:.5g} q3 {st[k]['q3']:.5g} "
                         f"spread {st[k]['spread']:.3f}")
                if st[k]["spread"] > m["bound"]:
                    ok = False
            a, b = per_set[0][k]["median"], per_set[1][k]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            line += f" | set1 vs set0 {worse:+.3f}"
            if worse > m["bound"]:
                ok = False
            print(line)
    with open(os.path.join(WORK, "steadiness.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("steadiness: " + ("within bounds" if ok else "OUT OF BOUNDS"))
    return ok


def write_goldens():
    goldens = {}
    for name in WORKLOADS:
        result, report = run_workload(name, DEFAULT_SEED, 0, False, goldens={})
        if not result["correct"]:
            raise BenchError(f"{name}: {report['problems']}")
        goldens[name] = {k: repr(v) for k, v in report["estimates"].items()}
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--write-goldens", action="store_true")
    a = ap.parse_args()
    try:
        if a.write_goldens:
            write_goldens()
            return 0
        seconds = a.seconds
        if seconds is None:
            seconds = benchmark_spec()["run_seconds"]
        if a.steadiness:
            if a.runs < 2:
                ap.error("quartiles need --runs 2 or more")
            names = a.workload or list(WORKLOADS)
            return 0 if steadiness(names, a.runs, seconds, a.seed) else 1
        if not a.workload or len(a.workload) != 1:
            ap.error("name one --workload")
        result, report = run_workload(a.workload[0], a.seed, seconds, a.trace)
    except BenchError as e:
        log(f"cyclebench: {e}")
        return 1
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    report_path = os.path.join(
        WORK, "reports", f"{a.workload[0]}-s{a.seed}-t{a.trace}.json")
    with open(report_path, "w") as f:
        json.dump({"result": result, **report}, f, indent=1)
    print_summary(result, report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
