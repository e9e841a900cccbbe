#!/usr/bin/env python3
"""DirectMesh end-to-end benchmark: runs one workload, checks its output
and prints every metric by name with its unit (README.md).

    python3 perfbench/run.py --workload paper_cold|serve_warm|ingest \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run builds the harness
and the library from source into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

WORKLOADS = ("paper_cold", "serve_warm", "ingest")
RUN_TIMEOUT_S = 170

# name -> unit of every end-to-end metric (BENCHMARK.json "end_to_end").
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "page_reads_per_query": "count",
    "build_s": "s",
    "store_bytes_per_point": "B",
    "peak_rss_mb": "MB",
}

# name -> unit of every per-layer metric (BENCHMARK.json "per_layer").
PER_LAYER_UNITS = {
    "server.queue_ms_p50": "ms",
    "server.queue_ms_p99": "ms",
    "server.exec_ms_p50": "ms",
    "dm_query.self_ms_per_query": "ms",
    "dm_query.refinement_splits_per_query": "count",
    "dm_query.range_queries_per_query": "count",
    "dm_query.vertices_per_query": "count",
    "dm_query.triangles_per_query": "count",
    "dm_fetch.ms_per_query": "ms",
    "dm_fetch.nodes_per_query": "count",
    "dm_fetch.useful_ratio": "ratio",
    "index.ms_per_query": "ms",
    "index.disk_reads_per_query": "count",
    "index.rids_per_query": "count",
    "dm_store.ms_per_query": "ms",
    "dm_store.cache_hit_ratio": "ratio",
    "dm_store.heap_reads_per_query": "count",
    "storage.logical_fetches_per_query": "count",
    "storage.hit_ratio": "ratio",
    "storage.evictions_per_query": "count",
    "storage.pages_per_run": "count",
    "storage.pages_written": "count",
    "dem.ms": "ms",
    "mesh.triangulate_ms": "ms",
    "simplify.ms": "ms",
    "pm.build_ms": "ms",
    "connectivity.ms": "ms",
    "connectivity.mean_list_len": "count",
    "dm_store.build_ms": "ms",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_logged(cmd, logfile, env):
    with open(logfile, "a", encoding="utf-8") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode


def build_harness(root, env):
    """Configures and builds dm_perfbench; returns its path or None."""
    tree = root / "perfbench-cmake"
    binary = tree / "dm_perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(tree),
                 "-DCMAKE_BUILD_TYPE=Release"]
    build = ["cmake", "--build", str(tree), "--target", "dm_perfbench",
             "-j", jobs]
    for attempt in range(2):
        tree.mkdir(parents=True, exist_ok=True)
        logfile = tree / "build.log"
        logfile.write_text("", encoding="utf-8")
        if (run_logged(configure, logfile, env) == 0 and
                run_logged(build, logfile, env) == 0):
            return binary
        if attempt == 0 and (tree / "CMakeCache.txt").exists():
            # A tree configured from another checkout: start afresh.
            shutil.rmtree(tree)
            continue
        log(logfile.read_text(encoding="utf-8", errors="replace")[-4000:])
    return None


def end_to_end(workload, rep, check):
    # Pages read per query: disk reads in the cold workloads, the paper's
    # count; buffer-pool page fetches in serve_warm, whose disk reads are
    # checked to be 0.
    pages = rep["page_fetches"] if workload == "serve_warm" else rep["disk_reads"]
    lat = rep["latency_ms"]
    p99_ok = stats.supports(len(lat), 99.0)
    check(p99_ok, f"{len(lat)} latency samples do not support a p99")
    return {
        "setup_s": stats.median(rep["setup_s"]),
        "throughput_qps": rep["queries"] / rep["query_wall_s"],
        "latency_p50_ms": stats.percentile(lat, 50.0),
        "latency_p99_ms": stats.percentile(lat, 99.0),
        "page_reads_per_query": pages / rep["queries"],
        "build_s": stats.median(rep["build_s"]),
        "store_bytes_per_point": rep["store_bytes"] / rep["points"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def per_layer(rep, spans_path):
    layer = dict(rep["layer"])
    for key, samples, p in (("server.queue_ms_p50", rep["queue_ms"], 50.0),
                            ("server.queue_ms_p99", rep["queue_ms"], 99.0),
                            ("server.exec_ms_p50", rep["exec_ms"], 50.0)):
        # QueryService is bypassed by paper_cold and ingest.
        layer[key] = stats.percentile(samples, p) if samples else 0.0
    totals = stats.self_times(stats.read_spans(spans_path))
    n = rep["traced_queries"]

    def per_query_ms(name, own):
        _count, total, self_ns = totals.get(name, (0, 0, 0))
        return (self_ns if own else total) / 1e6 / n

    layer["dm_query.self_ms_per_query"] = per_query_ms("dm_query", True)
    layer["dm_fetch.ms_per_query"] = per_query_ms("dm_fetch", False)
    layer["index.ms_per_query"] = per_query_ms("index", False)
    layer["dm_store.ms_per_query"] = per_query_ms("dm_store", False)
    untraced_qps = rep["queries"] / rep["query_wall_s"]
    traced_qps = n / rep["traced_wall_s"]
    layer["trace.overhead_pct"] = (1.0 - traced_qps / untraced_qps) * 100.0
    return layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = build_dir()
    tmp = root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build_harness(root, env)
    if binary is None:
        log("build failed")
        return 1

    run_dir = root / "perfbench-runs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    report_path = run_dir / "report.json"
    spans_path = run_dir / "spans.tsv"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(run_dir / "work"),
           "--report", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(run_dir / "work", ignore_errors=True)
    if code != 0:
        log(f"dm_perfbench exited with {code}")
        return 1
    rep = json.loads(report_path.read_text(encoding="utf-8"))

    problems = list(rep["errors"])

    def check(ok, what):
        if not ok:
            problems.append(what)

    if args.trace:
        values, units = per_layer(rep, spans_path), PER_LAYER_UNITS
    else:
        values, units = end_to_end(args.workload, rep, check), END_TO_END_UNITS
    attempted, failed = int(rep["attempted"]), int(rep["failed"])
    lat = rep["latency_ms"]
    tail = stats.tail(lat)
    lines = [
        f"host: {rep['nproc']} cores; build threads {rep['build_threads']}, "
        f"closed-loop clients {rep['clients']}, service workers "
        f"{rep['service_workers']}",
        f"operations: {attempted} attempted, {failed} failed "
        f"(share {stats.failed_share(attempted, failed):.4g})",
        f"latency: p50 {stats.percentile(lat, 50.0):.4g} ms and "
        f"p{tail[0]:g} {tail[1]:.4g} ms over {tail[2]} queries"
        if tail else f"latency: {len(lat)} samples",
        f"disk reads per query: {rep['disk_reads'] / rep['queries']:.6g}, "
        f"page fetches per query: {rep['page_fetches'] / rep['queries']:.6g}",
        "setup runs (s): " + ", ".join(f"{s:.3f}" for s in rep["setup_s"]),
        "median mesh vertices by kind: " + json.dumps(rep["kind_median_vertices"]),
        f"elapsed: {time.monotonic() - started:.1f} s",
    ]
    for line in lines:
        print(line)
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
