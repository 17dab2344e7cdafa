#!/usr/bin/env python3
"""fairbc benchmark: one command per (workload, seed) run.

    python3 fbbench/run.py --workload search|emit|serve --seed N \
        --seconds T --trace 0|1

Run from the root of a fairbc source tree. It builds fbbench_driver and
fairbc_server into .bench_build/, generates the workload's inputs from the
seed under .bench_run/, runs the workload for about T seconds, checks every
result, prints a table of every metric with its unit, and prints as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 a
separate traced measurement gives the per-layer metrics. See README.md.

`--pin` recomputes fbbench/pins.json (reference counts and digests at the
default seed) instead of running a workload.
"""

import argparse
import itertools
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fbstats  # noqa: E402

WORKLOADS = ("search", "emit", "serve")
DEFAULT_SEED = 1
BUILD_DIR = ".bench_build/fbbench"
RUN_ROOT = ".bench_run"
PINS = os.path.join(HERE, "pins.json")
# setup_s is the median of this many set-ups. A one-shot set-up writes one
# snapshot in milliseconds, so it is repeated more often than the serve
# set-up, which also starts a server.
ONESHOT_SETUP_REPEATS = 25
SERVE_SETUP_REPEATS = 9
# One-shot measurements are split over this many driver processes.
ONESHOT_PROCESSES = 4
# Server settings for `serve`: the result cache holds fewer entries than
# the trace has distinct queries, so misses and evictions keep recurring.
SERVER_CACHE_ENTRIES = 12
SERVER_RUNNER_THREADS = 4
# A serve round replays the first SERVE_ROUND_REQUESTS requests of the fixed
# trace (about 6.5 s); a run has one warm-up round and at least
# SERVE_MIN_ROUNDS measured ones, so at least 1000 measured requests.
SERVE_ROUND_REQUESTS = 250
SERVE_MIN_ROUNDS = 4
STEP_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------


def build(root):
    """Configures (once) and builds the driver and the server."""
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "fbbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                      "fbbench_driver", "fairbc_server"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise BenchError("build failed: %s (see %s)" %
                                 (" ".join(cmd), log_path))
    return (os.path.join(build_dir, "fbbench_driver"),
            os.path.join(build_dir, "fairbc", "fairbc_server"))


def driver_json(driver, args, timeout=STEP_TIMEOUT_S):
    """Runs one driver subcommand and parses its JSON stdout."""
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s %s failed: %s" %
                         (os.path.basename(driver), args[0], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- server ------------------------------------------------------------------


class Server:
    """A fairbc_server on an ephemeral loopback port, with a line-protocol
    control connection (load, catalog, metrics, stop)."""

    def __init__(self, binary, workdir, main_graph):
        self.stderr_path = os.path.join(workdir, "server.err")
        self.err = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            [binary, "--port=0", "--preload=main=" + main_graph,
             "--cache=%d" % SERVER_CACHE_ENTRIES,
             "--threads=%d" % SERVER_RUNNER_THREADS],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.err)
        self.sock = None
        try:
            self.port = self._wait_port()
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=60)
            self.rfile = self.sock.makefile("r")
        except BaseException:
            self.close()
            raise

    def _wait_port(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("server exited: " + self._stderr())
            # Only a complete line counts: the server may be mid-write.
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)\n", self._stderr())
            if m:
                return int(m.group(1))
            time.sleep(0.002)
        raise BenchError("server did not start listening")

    def _stderr(self):
        with open(self.stderr_path) as f:
            return f.read()

    def command(self, line):
        self.sock.sendall((line + "\n").encode())
        reply = json.loads(self.rfile.readline())
        if not reply.get("ok"):
            raise BenchError("server %r: %s" % (line, reply.get("error")))
        return reply

    def scrape(self):
        return fbstats.parse_prometheus(self.command("metrics")["text"])

    def peak_rss_bytes(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise BenchError("no VmHWM for the server")

    def close(self):
        """Stops the server and waits for it to exit."""
        try:
            if self.proc.poll() is None and self.sock is not None:
                self.sock.sendall(b"stop\n")
                self.rfile.close()
                self.sock.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.err.close()


def start_server(binary, workdir):
    server = Server(binary, workdir, os.path.join(workdir, "main.fbg"))
    try:
        server.command("load name=small path=%s format=snapshot" %
                       os.path.join(workdir, "small.fbg"))
    except BaseException:
        server.close()
        raise
    return server


# --- one-shot workloads ------------------------------------------------------


def ms(seconds):
    return seconds * 1e3


def generate(driver, workload, seed, workdir):
    """Writes the workload's snapshots; returns the generate-and-write
    time the driver measured (process start-up excluded)."""
    out = driver_json(driver, ["gen", "--workload=" + workload,
                               "--seed=%d" % seed, "--dir=" + workdir])
    return out["gen_s"] + out["write_s"]


def oneshot_setup(driver, workload, seed, workdir):
    times = []
    for _ in range(ONESHOT_SETUP_REPEATS):
        times.append(generate(driver, workload, seed, workdir))
    return statistics.median(times)


def check_oneshot(out, workload, seed, pins, failures):
    """Every query must repeat its (count, digest) across passes, report
    the count its stats report, and match the pins."""
    seen = {}
    for p in out["passes"]:
        for q in p["queries"]:
            key = q["key"]
            got = (q["count"], q["digest"])
            if q["stats"]["results"] != q["count"]:
                failures.append("%s: sink saw %d results, stats report %d" %
                                (key, q["count"], q["stats"]["results"]))
            elif key in seen and seen[key] != got:
                failures.append("%s: pass disagrees: %s vs %s" %
                                (key, got, seen[key]))
            else:
                check_pin(pins, workload, key, got, seed, failures)
            seen.setdefault(key, got)
    if out["verify_failed"]:
        failures.append("verification: %d of %d samples failed: %s" %
                        (out["verify_failed"], out["verify_checked"],
                         out["verify_error"]))


def check_pin(pins, workload, key, got, seed, failures):
    pin = pins.get(workload, {}).get(key)
    if pin is None:
        failures.append("%s: no pinned result" % key)
    elif got[0] != pin["count"]:
        failures.append("%s: count %d, pinned %d" % (key, got[0], pin["count"]))
    elif seed == DEFAULT_SEED and got[1] != pin["digest"]:
        failures.append("%s: digest %s, pinned %s" % (key, got[1], pin["digest"]))


def oneshot_end_to_end(passes):
    """A request is one RunEnumeration call. Every pass does the same work,
    and other load on the machine only adds time to a pass, so each timing
    is its minimum over the passes: the pass wall time, and each query's
    latency and time to first result. The percentiles are taken over the
    sweep's queries."""
    def per_query(field):
        return [min(p["queries"][i][field] for p in passes)
                for i in range(len(passes[0]["queries"]))]
    latency = per_query("latency_s")
    ttfr = per_query("ttfr_s")
    wall = min(p["wall_s"] for p in passes)
    return {
        "wall_s": wall,
        "results_per_s": sum(q["count"] for q in passes[0]["queries"]) / wall,
        "req_p50_ms": ms(fbstats.nearest_rank(latency, 50)),
        "req_p99_ms": ms(fbstats.nearest_rank(latency, 99)),
        "ttfr_p50_ms": ms(fbstats.nearest_rank(ttfr, 50)),
        "ttfr_p90_ms": ms(fbstats.nearest_rank(ttfr, 90)),
        "qps": len(passes[0]["queries"]) / wall,
    }, {"requests": len(latency), "streams": len(ttfr)}


def layers_from_stats(stats_list, results, graph_vertices):
    """Reduce, compact and search counters summed over executed queries.
    `graph_vertices[i]` is the vertex count of query i's graph."""
    construct = sum(s["prune_construct_s"] for s in stats_list)
    color = sum(s["prune_color_s"] for s in stats_list)
    peel = sum(s["prune_peel_s"] for s in stats_list)
    prune = sum(s["prune_s"] for s in stats_list)
    nodes = sum(s["nodes"] for s in stats_list)
    mbc = sum(s["mbc"] for s in stats_list)
    results_pp = sum(s["results"] for s in stats_list if s["mbc"] > 0)
    survivors = sum(s["remaining_upper"] + s["remaining_lower"] for s in stats_list)
    return {
        "reduce.s": construct + color + peel,
        "reduce.construct_s": construct,
        "reduce.color_s": color,
        "reduce.peel_s": peel,
        "reduce.survivor_ratio": survivors / max(1, sum(graph_vertices)),
        "compact.s": prune - (construct + color + peel),
        "search.nodes": nodes,
        "search.kernel_steps": sum(s["kernel_steps"] for s in stats_list),
        "search.kernel_steps_per_node":
            sum(s["kernel_steps"] for s in stats_list) / max(1, nodes),
        "search.results_per_node": results / max(1, nodes),
        "search.results_per_mbc": results_pp / mbc if mbc else 0.0,
        "search.split_subtrees": sum(s["splits"] for s in stats_list),
    }


ZERO_SERVICE_LAYERS = {
    "executor.s": 0.0, "executor.wait_s": 0.0, "executor.executions": 0,
    "executor.coalesced": 0, "cache.hit_rate": 0.0, "cache.evictions": 0,
    "cache.payload_hits": 0, "server.front_ms_p50": 0.0, "server.front_s": 0.0,
    "server.reply_bytes": 0, "server.reactor_writes": 0,
    "server.busy_errors": 0, "server.wire_bytes_per_result": 0.0,
    "stream.chunks": 0, "stream.results_per_chunk": 0.0,
}


def oneshot_layers(out, traced, untraced):
    """Per-layer numbers of the fastest traced pass, as wall_s is the
    fastest untraced one. Its self times add up to its wall_s: load +
    reduce + compact + search + emit + other, where other is the time
    outside every library call and phase (sweep loop, pipeline glue)."""
    p = min(traced, key=lambda x: x["wall_s"])
    stats_list = [q["stats"] for q in p["queries"]]
    results = sum(q["count"] for q in p["queries"])
    emit_s = sum(q["sink_s"] for q in p["queries"])
    m = layers_from_stats(stats_list, results, [out["vertices"]] * len(stats_list))
    search_s = sum(s["enum_s"] for s in stats_list) - emit_s
    m.update({
        "load.decode_s": p["load_s"],
        "load.mb_per_s": out["file_bytes"] / 1e6 / p["load_s"],
        "search.s": search_s,
        "search.nodes_per_s": m["search.nodes"] / search_s,
        "emit.s": emit_s,
        "emit.results": results,
        "emit.ns_per_result": emit_s / max(1, results) * 1e9,
    })
    m.update(ZERO_SERVICE_LAYERS)
    accounted = (m["load.decode_s"] + m["reduce.s"] + m["compact.s"] +
                 m["search.s"] + m["emit.s"])
    m["other.s"] = p["wall_s"] - accounted
    m["trace.wall_s"] = p["wall_s"]
    m["trace.coverage"] = accounted / p["wall_s"]
    m["trace.overhead_ratio"] = (p["wall_s"] /
                                 min(x["wall_s"] for x in untraced))
    return m


def run_oneshot(driver, workload, seed, seconds, trace, workdir, pins):
    """Runs the measurement in ONESHOT_PROCESSES driver processes of
    seconds / ONESHOT_PROCESSES each and pools their measured passes, so
    one process's thread placement and memory layout do not decide the
    run's numbers."""
    setup_s = oneshot_setup(driver, workload, seed, workdir)
    failures = []
    attempted = 0
    measured = []
    peak_rss = []
    out = None
    for _ in range(ONESHOT_PROCESSES):
        out = driver_json(driver, ["oneshot", "--workload=" + workload,
                                   "--seed=%d" % seed, "--dir=" + workdir,
                                   "--seconds=%g" % (seconds / ONESHOT_PROCESSES),
                                   "--trace=%d" % trace])
        check_oneshot(out, workload, seed, pins, failures)
        attempted += sum(len(p["queries"]) for p in out["passes"])
        attempted += out["verify_checked"]
        measured += [p for p in out["passes"] if not p["warmup"]]
        peak_rss.append(out["peak_rss_bytes"])
    untraced = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    e2e, samples = oneshot_end_to_end(untraced)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = statistics.median(peak_rss) / 2**20
    layers = oneshot_layers(out, traced, untraced) if trace else {}
    return e2e, layers, samples, attempted, failures


# --- serve -------------------------------------------------------------------


def serve_setup(driver, server_bin, seed, workdir):
    """Generates the graphs and starts the preloaded server, several times;
    returns the median set-up time and the last (running) server."""
    times = []
    server = None
    for _ in range(SERVE_SETUP_REPEATS):
        if server is not None:
            server.close()
        gen_s = generate(driver, "serve", seed, workdir)
        t0 = time.perf_counter()
        server = start_server(server_bin, workdir)
        times.append(gen_s + time.perf_counter() - t0)
    return statistics.median(times), server


def run_client(driver, server, seed, trace, workdir, tag):
    """Runs one round of the trace; returns its records and the client's
    verification summary."""
    records_path = os.path.join(workdir, "records-%s.jsonl" % tag)
    summary = driver_json(driver, [
        "client", "--seed=%d" % seed, "--dir=" + workdir,
        "--requests=%d" % SERVE_ROUND_REQUESTS, "--port=%d" % server.port,
        "--records=" + records_path, "--trace=%d" % trace])
    with open(records_path) as f:
        records = [json.loads(line) for line in f]
    return records, summary


def check_serve(records, summary, seed, pins, failures):
    """Every request must succeed; streams must reassemble to the summary
    the server reports; every answer for one query must agree, and match
    the pinned reference computed by the library."""
    answers = {}
    for r in records:
        key = r["key"]
        reply = r["reply"]
        if r["error"] or reply is None:
            failures.append("request %d (%s): %s" % (r["i"], key, r["error"]))
            continue
        got = (reply["count"], reply["digest"])
        if r["stream"] and (not r["seq_ok"] or
                            (r["results"], r["digest"]) != got):
            failures.append("request %d (%s): stream carried %d results %s, "
                            "reply says %s" % (r["i"], key, r["results"],
                                               r["digest"], got))
        elif key in answers and answers[key] != got:
            failures.append("request %d (%s): %s disagrees with %s" %
                            (r["i"], key, got, answers[key]))
        elif key not in answers:
            check_pin(pins, "serve", key, got, seed, failures)
        answers.setdefault(key, got)
    if summary["verify_failed"]:
        failures.append("verification: %d of %d samples failed: %s" %
                        (summary["verify_failed"], summary["verify_checked"],
                         summary["verify_error"]))


def round_wall(records):
    ok = [r for r in records if r["reply"] is not None]
    return max(r["last_byte"] for r in ok) - min(r["send"] for r in records)


def serve_end_to_end(rounds):
    """`rounds` holds the records of each measured round. Every round does
    the same work, and other load on the machine only adds time to a
    round, so throughput is that of the fastest round, as one-shot
    throughput is that of the fastest pass. The percentiles pool every
    round's requests."""
    ok = [[r for r in records if r["reply"] is not None] for records in rounds]
    walls = [round_wall(records) for records in rounds]
    fastest = min(range(len(rounds)), key=lambda i: walls[i])
    pooled = [r for round_ok in ok for r in round_ok]
    roundtrips = [r["last_byte"] - r["send"] for r in pooled]
    ttfr = [r["first_chunk"] - r["send"] for r in pooled
            if r["stream"] and r["chunks"] > 0]
    return {
        "wall_s": walls[fastest],
        "results_per_s": (sum(r["results"] for r in ok[fastest]) /
                          walls[fastest]),
        "req_p50_ms": ms(fbstats.nearest_rank(roundtrips, 50)),
        "req_p99_ms": ms(fbstats.nearest_rank(roundtrips, 99)),
        "ttfr_p50_ms": ms(fbstats.nearest_rank(ttfr, 50)),
        "ttfr_p90_ms": ms(fbstats.nearest_rank(ttfr, 90)),
        "qps": len(ok[fastest]) / walls[fastest],
    }, {"requests": len(roundtrips), "streams": len(ttfr)}


def serve_layers(records, connections, before, after, catalog, traced_wall,
                 untraced_wall):
    """Per-layer numbers of the traced serve round, in connection-seconds:
    the client's connections are busy for connections x wall_s, split into
    reduce, compact, search and executor wait (from each reply's `seconds`
    and `stats`), client decoding of chunks (emit), the front end (round
    trip minus reply `seconds`, minus emit), and other (client time between
    requests). Decoding that overlaps the server's `seconds` of the same
    request is hidden behind them and not counted as emit."""
    ok = [r for r in records if r["reply"] is not None]
    executed = [r for r in ok
                if not r["reply"]["cache_hit"] and not r["reply"]["coalesced"]]
    graphs = {g["name"]: g for g in catalog["graphs"]}
    vertices = [graphs[r["key"].split("/")[0]]["upper"] +
                graphs[r["key"].split("/")[0]]["lower"] for r in executed]
    stats_list = [r["reply"]["stats"] for r in executed]
    m = layers_from_stats(stats_list, sum(s["results"] for s in stats_list),
                          vertices)
    search_s = sum(s["enum_s"] for s in stats_list)
    executor_s = sum(r["reply"]["seconds"] for r in ok)
    roundtrip_s = sum(r["last_byte"] - r["send"] for r in ok)
    emit_s = sum(min(r["decode_s"],
                     r["last_byte"] - r["send"] - r["reply"]["seconds"])
                 for r in ok)
    delivered = sum(r["results"] for r in ok)
    reply_bytes = sum(r["bytes"] for r in ok)
    chunks = sum(r["chunks"] for r in ok)
    hits = fbstats.delta(before, after, "fairbc_cache_hits_total")
    misses = fbstats.delta(before, after, "fairbc_cache_misses_total")
    main = graphs["main"]
    m.update({
        "load.decode_s": main["load_seconds"],
        "load.mb_per_s": main["source_bytes"] / 1e6 / main["load_seconds"],
        "search.s": search_s,
        "search.nodes_per_s": m["search.nodes"] / search_s if search_s else 0.0,
        "emit.s": emit_s,
        "emit.results": delivered,
        "emit.ns_per_result": emit_s / max(1, delivered) * 1e9,
        "executor.s": executor_s,
        "executor.wait_s": executor_s - (m["reduce.s"] + m["compact.s"] + search_s),
        "executor.executions": fbstats.delta(before, after,
                                             "fairbc_query_executions_total"),
        "executor.coalesced": fbstats.delta(before, after,
                                            "fairbc_query_coalesced_total"),
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": fbstats.delta(before, after, "fairbc_cache_evictions_total"),
        "cache.payload_hits": fbstats.delta(before, after,
                                            "fairbc_cache_payload_hits_total"),
        "server.front_ms_p50": ms(fbstats.nearest_rank(
            [r["last_byte"] - r["send"] - r["reply"]["seconds"] for r in ok], 50)),
        "server.front_s": roundtrip_s - executor_s - emit_s,
        "server.reply_bytes": reply_bytes,
        "server.reactor_writes": fbstats.delta(before, after,
                                               "fairbc_reactor_writes_total"),
        "server.busy_errors": fbstats.delta(
            before, after, fbstats.series_key("fairbc_server_errors_total",
                                              {"code": "busy"})),
        "server.wire_bytes_per_result": reply_bytes / max(1, delivered),
        "stream.chunks": fbstats.delta(before, after, "fairbc_stream_chunks_total"),
        "stream.results_per_chunk": delivered / max(1, chunks),
    })
    busy = connections * traced_wall
    m["other.s"] = busy - roundtrip_s
    m["trace.wall_s"] = traced_wall
    m["trace.coverage"] = roundtrip_s / busy
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return m


def run_serve(driver, server_bin, seed, seconds, trace, workdir, pins):
    """Replays the trace round after round on one server: a warm-up round
    brings the cache to the state every later round starts from, then
    measured rounds run until `seconds` have passed. With `trace`, one more
    round runs with the client's tracing on and metrics scraped around it."""
    setup_s, server = serve_setup(driver, server_bin, seed, workdir)
    failures = []
    attempted = 0
    measured = []
    try:
        start = time.monotonic()
        for i in itertools.count():
            records, summary = run_client(driver, server, seed, 0, workdir,
                                          "round%d" % i)
            check_serve(records, summary, seed, pins, failures)
            attempted += len(records) + summary["verify_checked"]
            if i > 0:
                measured.append(records)
            if (len(measured) >= SERVE_MIN_ROUNDS and
                    time.monotonic() - start >= seconds):
                break
        peak_rss = server.peak_rss_bytes()
        if trace:
            before = server.scrape()
            traced, traced_summary = run_client(driver, server, seed, 1,
                                                workdir, "traced")
            after = server.scrape()
            catalog = server.command("catalog")
    finally:
        server.close()
    e2e, samples = serve_end_to_end(measured)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss / 2**20
    layers = {}
    if trace:
        check_serve(traced, traced_summary, seed, pins, failures)
        attempted += len(traced) + traced_summary["verify_checked"]
        layers = serve_layers(traced, traced_summary["connections"], before,
                              after, catalog, round_wall(traced),
                              e2e["wall_s"])
    return e2e, layers, samples, attempted, failures


# --- output ------------------------------------------------------------------


def load_manifest():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def print_table(title, metrics, units):
    print(title)
    for name in sorted(metrics):
        print("  %-32s %16.6g %s" % (name, metrics[name], units.get(name, "")))


def main():
    # A terminated run still stops its server and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute pins.json at the default seed")
    args = parser.parse_args()
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        log("error: run from the root of a fairbc source tree "
            "(CMakeLists.txt and src/ not found in %s)" % root)
        return 2
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    end_to_end_units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}

    workdir = os.path.join(root, RUN_ROOT, "%s-%d-%d" % (
        args.workload or "pin", args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        driver, server_bin = build(root)
        if args.pin:
            pins = {}
            for w in WORKLOADS:
                driver_json(driver, ["gen", "--workload=" + w,
                                     "--seed=%d" % DEFAULT_SEED, "--dir=" + workdir])
                pins[w] = driver_json(driver, ["pins", "--workload=" + w,
                                               "--dir=" + workdir])
            with open(PINS, "w") as f:
                json.dump(pins, f, indent=1, sort_keys=True)
                f.write("\n")
            log("wrote " + PINS)
            return 0
        with open(PINS) as f:
            pins = json.load(f)
        if args.workload == "serve":
            e2e, layers, samples, attempted, failures = run_serve(
                driver, server_bin, args.seed, args.seconds, args.trace,
                workdir, pins)
        else:
            e2e, layers, samples, attempted, failures = run_oneshot(
                driver, args.workload, args.seed, args.seconds, args.trace,
                workdir, pins)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures[:20]:
        log("MISMATCH: " + f)
    error_rate = len(failures) / attempted
    print("workload=%s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print_table("end-to-end", e2e, end_to_end_units)
    print("  %-32s %16.6g %s" % ("error_rate", error_rate, "ratio"))
    for name in ("req", "ttfr"):
        n = samples["requests" if name == "req" else "streams"]
        print("  %s samples: %d (highest supported percentile: %s)" %
              (name, n, fbstats.highest_supported(n)))
    if args.trace:
        print_table("per-layer (traced run)", layers, layer_units)
    names = end_to_end_units if not args.trace else layer_units
    metrics = {}
    source = e2e if not args.trace else layers
    for name, unit in names.items():
        metrics[name] = {"value": source[name], "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
