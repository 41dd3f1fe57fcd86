#!/usr/bin/env python3
"""Paper-scale benchmark of the Pincer-Search repository.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-dense-trie --seed 19980323 \
        --seconds 50 --trace 0

builds the library, pincer_serve and the benchmark driver (Release, under
.bench_build/), generates the seeded Quest inputs, computes reference
answers with Apriori on the vertical backend, runs the workload, checks
every answer, and prints one JSON object as the last line of stdout. With
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. README.md describes the workloads and metrics;
`--self-test` checks the build guard and that a wrong reference is
reported as failures.
"""

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench-work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SERVE = os.path.join(BUILD_DIR, "pincer", "examples", "pincer_serve")

# Every database keeps the pattern pool of this seed (the harnesses'
# default); the run's --seed draws the transactions.
POOL_SEED = 19980323
DEFAULT_SEED = 19980323
HELD_BACK_SEED = 27182818
NUM_TRANSACTIONS = 100000

# Quest parameters (paper notation): |T|, |I|, |L|; N = 1000, |D| = 100K.
DATABASES = {
    "t20i10": {"t": 20, "i": 10, "l": 50},  # Figure 4, row 2
    "t5i2": {"t": 5, "i": 2, "l": 2000},  # Figure 3, row 1
    "t10i4": {"t": 10, "i": 4, "l": 2000},  # Figure 3, row 2
    "t20i6": {"t": 20, "i": 6, "l": 2000},  # Figure 3, row 3
}

FIG3_SUPPORTS = {
    "t5i2": [0.01, 0.0075, 0.005, 0.0033, 0.0025],
    "t10i4": [0.015, 0.01, 0.0075, 0.005],
    "t20i6": [0.02, 0.015, 0.01],
}
# One counting thread: with two, every pass hands batches to a pool worker,
# and on shared vCPUs the wake-ups made the mine client's median swing by a
# quarter between runs of one seed; with one it stayed within a tenth.
SERVE_THREADS = 1
SERVE_CACHE = 256  # room for every primed entry plus recent filter results
SERVE_ALGORITHMS = ["pincer-adaptive", "apriori", "apriori-combined"]
# Pure pincer only where it finishes in about half a second or less; the
# slowest one appears twice per cycle so the mine client's tail sits on it.
PURE_PINCER = [("t5i2", 0.01), ("t5i2", 0.005), ("t5i2", 0.005),
               ("t10i4", 0.015)]

# The cached client's think time between requests. The mine client's
# latency follows the cached client's load: in alternating runs of one
# seed, its median ranged over 21% with a 1 ms wait and 2.5% with 5 ms.
CACHED_THINK_MS = 5.0

# Cold jobs count on min(4, nproc) threads.
COLD = {
    "cold-dense-trie": {"db": "t20i10", "support": 0.10, "backend": "trie"},
}
WORKLOADS = list(COLD) + ["serve-mix"]

SETUP_REPEATS = 5  # set-up samples of a cold run; the median counts
# A daemon launch lands on one of two speeds (about 0.42 or 0.65 s) that
# alternate within seconds; with 5 launches a run's median followed them.
SERVE_SETUP_REPEATS = 9
MIN_SAMPLES = 21  # so the tail percentile is at least the median


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Build and environment guard.


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: no repository source next to perfbench/;"
                         " run from the root of a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # Explicit defaults, so options a previous configure left in the cache
    # (a sanitizer, say) do not carry over.
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release", "-DPINCER_CONTRACTS=ON",
                 "-DPINCER_SANITIZE_ADDRESS=OFF",
                 "-DPINCER_SANITIZE_THREAD=OFF"]
    jobs = str(min(4, nproc()))
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
              "perfbench_driver", "example_pincer_serve"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(step)}")


def check_build(info):
    """Returns why `info` (the driver's `info` output) must not be timed."""
    if info.get("build_type", "").lower() in ("debug", ""):
        return f"build type {info.get('build_type')!r} is not an optimized build"
    if not info.get("optimized"):
        return "the driver was compiled without optimization"
    if info.get("sanitized"):
        return "sanitizer builds measure a different program"
    return None


def driver(*args, cwd=None, seconds=0.0):
    """Runs a driver subcommand; `seconds` is how long it is asked to time."""
    done = subprocess.run([DRIVER, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd,
                          timeout=seconds + 170)
    if done.returncode != 0:
        raise RuntimeError(f"driver {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Inputs and references.


def min_count(support, transactions=NUM_TRANSACTIONS):
    return max(1, math.ceil(support * transactions))


def generate(work, name, seed, transactions=NUM_TRANSACTIONS):
    params = DATABASES[name]
    path = os.path.join(work, f"{name}.basket")
    made = driver("gen", f"--out={path}", f"--t={params['t']}",
                  f"--i={params['i']}", f"--l={params['l']}", "--n=1000",
                  f"--d={transactions}", f"--pool-seed={POOL_SEED}",
                  f"--seed={seed}")
    return path, {"quest": made["name"], "pool_seed": POOL_SEED,
                  "seed": seed, "file_bytes": os.path.getsize(path),
                  "occurrences": made["occurrences"]}


def reference(work, name, path, supports):
    return driver("reference", f"--db={path}", f"--out-dir={work}",
                  f"--name={name}",
                  "--supports=" + ",".join(repr(s) for s in supports),
                  f"--threads={min(4, nproc())}")


# ---------------------------------------------------------------------------
# Statistics.


def tail(values):
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def overhead_pct(traced, untraced):
    if not traced or not untraced:
        return 0.0
    base = statistics.median(untraced)
    return 100.0 * (statistics.median(traced) - base) / base


def phases(stats):
    """The time a run's per-pass phase timers cover."""
    return (stats["gen_ms"] + stats["count_ms"] + stats["fastpath_ms"]
            + stats["mfcs_update_ms"] + stats["mfcs_index_ms"])


def stats_layers(stats_list):
    """Per-layer numbers read from the program's own per-run stats."""
    elapsed = [s["elapsed_ms"] for s in stats_list]
    unattributed = [s["elapsed_ms"] - phases(s) for s in stats_list]
    mfcs = [s["mfcs_update_ms"] + s["mfcs_index_ms"] for s in stats_list]
    return {
        "counting.calls": mean(s["count_calls"] for s in stats_list),
        "counting.candidates": mean(s["candidates_counted"]
                                    for s in stats_list),
        "counting.transactions_scanned": mean(s["transactions_scanned"]
                                              for s in stats_list),
        "counting.fastpath_ms": mean(s["fastpath_ms"] for s in stats_list),
        "counting.useful_ratio": ratio(sum(s["useful"] for s in stats_list),
                                       sum(s["counted"] for s in stats_list)),
        "core.mfcs_ms": mean(mfcs),
        "core.mfcs_index_share": ratio(
            sum(s["mfcs_index_ms"] for s in stats_list), sum(mfcs)),
        "core.mfcs_yield": ratio(sum(s["mfs_found"] for s in stats_list),
                                 sum(s["mfcs_candidates"]
                                     for s in stats_list)),
        "core.gen_ms": mean(s["gen_ms"] for s in stats_list),
        "core.reported_candidates": mean(s["reported_candidates"]
                                         for s in stats_list),
        "mining.passes": mean(s["passes"] for s in stats_list),
        "mining.unattributed_ms": mean(unattributed),
        "mining.unattributed_share": ratio(sum(unattributed), sum(elapsed)),
    }


def apriori_layers(stats_list):
    return {"apriori.gen_ms": mean(s["gen_ms"] for s in stats_list),
            "apriori.candidates": mean(s["reported_candidates"]
                                       for s in stats_list)}


# ---------------------------------------------------------------------------
# Cold jobs.


def run_cold(name, seed, seconds, trace, work):
    spec = COLD[name]
    threads = min(4, nproc())
    db = spec["db"]
    path, inputs = generate(work, db, seed)
    refs = reference(work, db, path, [spec["support"]])
    args = [f"--db={path}", f"--d={NUM_TRANSACTIONS}", f"--name={db}",
            f"--supports={spec['support']!r}",
            f"--backend={spec['backend']}", f"--threads={threads}",
            f"--ref-dir={work}", f"--out={os.path.join(work, 'mfs.txt')}",
            f"--trace-file={os.path.join(work, 'trace.json')}"]
    # Processes that run only their first job: set-up samples beside the
    # timed process's own first job.
    probes = [] if trace else [
        driver("cold", *args, "--seconds=0", "--min-jobs=0", "--trace=0")
        for _ in range(SETUP_REPEATS - 1)]
    run = driver("cold", *args, f"--seconds={seconds}",
                 f"--min-jobs={MIN_SAMPLES}", f"--trace={int(trace)}",
                 seconds=seconds)
    jobs = run["jobs"]
    firsts = [probe["first"] for probe in probes] + [run["first"]]
    everything = jobs + firsts
    attempted = len(everything)
    failed = sum(1 for job in everything if not job["ok"])
    errors = sorted({job["error"] for job in everything if not job["ok"]})
    untraced = [job["ms"] for job in jobs if not job["traced"]]
    detail = {"inputs": {db: inputs}, "threads": threads,
              "backend": spec["backend"], "support": spec["support"],
              "errors": errors[:5]}

    if not trace:
        wall_s = run["wall_ms"] / 1000.0
        p50 = statistics.median(untraced)
        tail_ms, tail_pct, samples = tail(untraced)
        detail.update(tail_percentile=tail_pct, samples=samples,
                      setup_samples_ms=[f["ms"] for f in firsts])
        metrics = {
            "setup_s": statistics.median(f["ms"] for f in firsts) / 1000.0,
            "job_ms_p50": p50,
            "job_ms_tail": tail_ms,
            "pincer_adaptive_ms_p50": p50,
            "mined_tx_per_s": NUM_TRANSACTIONS * len(untraced) / wall_s,
            "queries_per_s": len(untraced) / wall_s,
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        }
        return metrics, attempted, failed, detail

    traced = [job for job in jobs if job["traced"]]

    def self_ms(span):
        return [job["self_ms"].get(span, 0.0) for job in traced]

    layer_keys = ["data.read", "data.stats", "counting.create",
                  "mining.mine", "counting.count", "output.write"]
    layers_sum = [sum(job["self_ms"].get(k, 0.0) for k in layer_keys)
                  for job in traced]
    read_ms = mean(self_ms("data.read"))
    job_ms = [job["ms"] for job in traced]
    mine_ms = [m + c for m, c in zip(self_ms("mining.mine"),
                                     self_ms("counting.count"))]
    remainder = self_ms("job")
    metrics = {
        "data.read_ms": read_ms,
        "data.read_mb_per_s": ratio(inputs["file_bytes"] / 1e6,
                                    read_ms / 1000.0),
        "data.stats_ms": mean(self_ms("data.stats")),
        "counting.create_ms": mean(self_ms("counting.create")),
        "counting.count_ms": mean(self_ms("counting.count")),
        "mining.mine_ms": mean(mine_ms),
        "output.write_ms": mean(self_ms("output.write")),
        "reconcile.layers_ms": mean(layers_sum),
        "reconcile.remainder_ms": mean(remainder),
        "reconcile.remainder_share": ratio(sum(remainder), sum(job_ms)),
        "serve.overhead_ms": 0.0,
        "serve.apriori_ms_p50": 0.0,
        "serve.pincer_apriori_ratio": 0.0,
        "serve.cached_ms_p50": 0.0,
        "serve.cached_ms_tail": 0.0,
        "serve.cache_hits": 0,
        "serve.cache_filters": 0,
        "serve.cache_misses": 0,
        "trace.overhead_pct": overhead_pct(job_ms, untraced),
    }
    stats = [job["stats"] for job in traced]
    metrics.update(stats_layers(stats))
    # Seen from outside, MineMaximal's span is the mining time: what the
    # program's per-pass phases leave uncovered is measured against it.
    uncovered = [m - phases(s) for m, s in zip(mine_ms, stats)]
    metrics["mining.unattributed_ms"] = mean(uncovered)
    metrics["mining.unattributed_share"] = ratio(sum(uncovered), sum(mine_ms))
    # Cold jobs run no Apriori; the apriori layer is read from this
    # workload's reference runs (Apriori on the same inputs).
    metrics.update(apriori_layers([run["stats"] for run in refs["runs"]]))
    detail.update(samples_traced=len(traced), samples_untraced=len(untraced),
                  per_job_reconcile=[
                      {"job_ms": job["ms"], "layers_ms": s, "remainder_ms": r}
                      for job, s, r in zip(traced, layers_sum, remainder)])
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------
# serve-mix.


def serve_plan(seed, transactions=NUM_TRANSACTIONS, databases=None):
    """The seeded request sequence of both clients."""
    rng = random.Random(seed)
    databases = databases or FIG3_SUPPORTS

    def entry(db, algorithm, support, count, is_filter=False):
        return {"database": db, "algorithm": algorithm,
                "min_support": support, "min_count": count,
                "num_transactions": transactions, "filter": is_filter}

    kinds = [entry(db, algorithm, s, min_count(s, transactions))
             for db, supports in databases.items() for s in supports
             for algorithm in SERVE_ALGORITHMS]
    kinds += [entry(db, "pincer", s, min_count(s, transactions))
              for db, s in PURE_PINCER if db in databases]
    prime = [entry(db, algorithm, s, min_count(s, transactions))
             for db, supports in databases.items() for s in supports
             for algorithm in ("apriori", "pincer-adaptive")]
    # Stricter thresholds halfway between two primed Apriori thresholds:
    # the daemon answers them by filtering a cached Apriori result.
    filters = []
    for db, supports in databases.items():
        counts = sorted(min_count(s, transactions) for s in supports)
        for low, high in zip(counts, counts[1:]):
            target = (low + high) // 2
            filters.append(entry(db, "apriori", (target - 0.5) / transactions,
                                 target, True))
    mine, cached = [], []
    for _ in range(60):
        mine += rng.sample(kinds, len(kinds))
        cached += rng.sample(prime + filters, len(prime) + len(filters))
    return {"cycle": len(kinds), "cached_think_ms": CACHED_THINK_MS,
            "mine": mine, "prime": prime,
            "cached": cached, "filters": filters}


class Daemon:
    """A pincer_serve process; start() returns seconds from launch to READY."""

    def __init__(self, work, databases):
        self.work = work
        self.databases = databases
        self.process = None

    def start(self):
        args = [SERVE, "--socket=serve.sock", f"--threads={SERVE_THREADS}",
                f"--cache={SERVE_CACHE}"]
        args += [f"--db={name}={path}" for name, path in self.databases]
        log_file = open(os.path.join(self.work, "serve.log"), "ab")
        began = time.perf_counter()
        self.process = subprocess.Popen(args, cwd=self.work,
                                        stdout=subprocess.PIPE,
                                        stderr=log_file)
        log_file.close()
        ready, _, _ = select.select([self.process.stdout], [], [], 120)
        line = self.process.stdout.readline().decode() if ready else ""
        elapsed = time.perf_counter() - began
        if not line.startswith("READY"):
            self.stop()
            raise RuntimeError("pincer_serve did not become ready")
        return elapsed

    def stop(self):
        """SIGTERM, wait, and return the daemon's peak RSS in KiB."""
        if self.process is None:
            return 0
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid == process.pid:
                process.returncode = os.waitstatus_to_exitcode(status)
                process.stdout.close()
                return usage.ru_maxrss
            time.sleep(0.01)
        process.kill()
        _, _, usage = os.wait4(process.pid, 0)
        process.stdout.close()
        return usage.ru_maxrss


def run_serve(seed, seconds, trace, work, transactions=NUM_TRANSACTIONS,
              databases=None, corrupt=False):
    databases = databases or FIG3_SUPPORTS
    plan = serve_plan(seed, transactions, databases)
    inputs, paths, refs = {}, [], {}
    for db in databases:
        path, inputs[db] = generate(work, db, seed, transactions)
        paths.append((db, path))
        targets = sorted({e["min_support"] for key in ("mine", "prime", "cached")
                          for e in plan[key] if e["database"] == db})
        refs[db] = reference(work, db, path, targets)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as out:
        json.dump(plan, out)

    daemon = Daemon(work, paths)
    setups = []
    try:
        for repeat in range(SERVE_SETUP_REPEATS):
            setups.append(daemon.start())
            if repeat + 1 < SERVE_SETUP_REPEATS:
                daemon.stop()
        result = driver("serve", "--socket=serve.sock", f"--plan={plan_path}",
                        f"--ref-dir={work}", f"--seconds={seconds}",
                        f"--min-requests={MIN_SAMPLES}",
                        f"--trace={int(trace)}",
                        f"--corrupt-reference={int(corrupt)}",
                        f"--trace-file={os.path.join(work, 'trace.json')}",
                        cwd=work, seconds=seconds)
    finally:
        peak_kb = daemon.stop()

    mine = [m["record"] for m in result["mine"]]
    cached = result["cached"]
    everything = result["primed"] + mine + cached
    attempted = len(everything)
    failed = sum(1 for r in everything if not r["ok"])
    errors = sorted({r["error"] for r in everything if not r["ok"]})
    untraced = [m["record"]["ms"] for m in result["mine"]
                if not m["traced"]]
    detail = {"inputs": inputs, "errors": errors[:5],
              "daemon": {"threads": SERVE_THREADS, "cache": SERVE_CACHE},
              "requests": {"mine": len(mine), "cached": len(cached),
                           "primed": len(result["primed"])}}
    mine_wall = result["mine_wall_ms"] / 1000.0
    cached_wall = result["cached_wall_ms"] / 1000.0

    if not trace:
        tail_ms, tail_pct, samples = tail(untraced)
        detail.update(tail_percentile=tail_pct, samples=samples,
                      setup_samples_s=setups)
        metrics = {
            "setup_s": statistics.median(setups),
            "job_ms_p50": statistics.median(untraced),
            "job_ms_tail": tail_ms,
            "pincer_adaptive_ms_p50": statistics.median(
                r["ms"] for r in mine if r["algorithm"] == "pincer-adaptive"),
            "mined_tx_per_s": sum(r["transactions"] for r in mine) / mine_wall,
            "queries_per_s": (len(mine) / mine_wall
                              + len(cached) / cached_wall),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        return metrics, attempted, failed, detail

    traced = [m["record"] for m in result["mine"] if m["traced"]]
    overhead = [r["ms"] - r["stats"]["elapsed_ms"] for r in traced]
    elapsed = [r["stats"]["elapsed_ms"] for r in traced]
    pincer_ms = [r["ms"] for r in traced if r["algorithm"] == "pincer-adaptive"]
    apriori = [r for r in traced if r["algorithm"].startswith("apriori")]
    apriori_ms = [r["ms"] for r in apriori]
    cached_ms = [r["ms"] for r in cached]
    total_bytes = sum(i["file_bytes"] for i in inputs.values())
    read_ms = sum(r["read_ms"] for r in refs.values())
    metrics = {
        # Measured on the same files and calls the daemon makes at start-up;
        # serve-mix pays them in setup_s only.
        "data.read_ms": read_ms,
        "data.read_mb_per_s": ratio(total_bytes / 1e6, read_ms / 1000.0),
        "data.stats_ms": 0.0,
        "counting.create_ms": sum(r["resident_create_ms"]
                                  for r in refs.values()),
        "counting.count_ms": mean(r["stats"]["count_ms"] for r in traced),
        "mining.mine_ms": mean(elapsed),
        "output.write_ms": 0.0,
        "reconcile.layers_ms": mean(elapsed),
        "reconcile.remainder_ms": mean(overhead),
        "reconcile.remainder_share": ratio(sum(overhead),
                                           sum(r["ms"] for r in traced)),
        "serve.overhead_ms": mean(overhead),
        "serve.apriori_ms_p50": statistics.median(apriori_ms),
        "serve.pincer_apriori_ratio": ratio(statistics.median(pincer_ms),
                                            statistics.median(apriori_ms)),
        "serve.cached_ms_p50": statistics.median(cached_ms),
        "serve.cached_ms_tail": tail(cached_ms)[0],
        "serve.cache_hits": sum(1 for r in cached if r["cache"] == "hit"),
        "serve.cache_filters": sum(1 for r in cached
                                   if r["cache"] == "filter"),
        "serve.cache_misses": sum(1 for r in cached if r["cache"] == "miss"),
        "trace.overhead_pct": overhead_pct([r["ms"] for r in traced],
                                           untraced),
    }
    pincer_stats = [r["stats"] for r in traced
                    if r["algorithm"].startswith("pincer")]
    metrics.update(stats_layers([r["stats"] for r in traced]))
    # The core.* numbers describe the Pincer requests only.
    core = stats_layers(pincer_stats)
    metrics.update({k: v for k, v in core.items() if k.startswith("core.")})
    metrics.update(apriori_layers([r["stats"] for r in apriori]))
    detail.update(samples_traced=len(traced), samples_untraced=len(untraced))
    return metrics, attempted, failed, detail


# ---------------------------------------------------------------------------


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def emit(metrics, group, attempted, failed):
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in group}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


def expect(condition, message):
    if not condition:
        raise SystemExit(f"perfbench: self-test failed: {message}")


def self_test():
    release = {"build_type": "Release", "optimized": True, "sanitized": False}
    expect(check_build(release) is None, "a Release build was refused")
    for refused in ({"build_type": "Debug", "optimized": False},
                    {"sanitized": True}, {"optimized": False}):
        expect(check_build({**release, **refused}),
               f"a build with {refused} was not refused")
    log("build guard refuses Debug, unoptimized and sanitizer builds")

    work = fresh_work_dir("self-test")
    path, _ = generate(work, "t10i4", 7, transactions=4000)
    reference(work, "t10i4", path, [0.02])
    args = [f"--db={path}", "--d=4000", "--name=t10i4", "--supports=0.02",
            "--backend=trie", "--threads=1", f"--ref-dir={work}",
            f"--out={os.path.join(work, 'mfs.txt')}", "--seconds=0.3",
            "--min-jobs=3", "--trace=1",
            f"--trace-file={os.path.join(work, 'trace.json')}"]
    good = driver("cold", *args)
    bad = driver("cold", *args, "--corrupt-reference=1")
    expect(all(job["ok"] for job in good["jobs"] + [good["first"]]),
           "correct jobs reported failed")
    expect(not any(job["ok"] for job in bad["jobs"] + [bad["first"]]),
           "a wrong reference was not reported")
    log("cold jobs: wrong reference -> every job failed")

    small = {"t10i4": [0.04, 0.02]}
    for corrupt in (False, True):
        _, attempted, failed, _ = run_serve(7, 0.5, False, work, 4000, small,
                                            corrupt)
        expect(failed == (attempted if corrupt else 0),
               f"{failed} of {attempted} requests failed (corrupt={corrupt})")
    log("serve: wrong reference -> every request failed")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"self_test": "ok"}))


def fresh_work_dir(name):
    work = os.path.join(WORK_ROOT, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"default {DEFAULT_SEED}; keep {HELD_BACK_SEED} "
                        "back to confirm a claimed gain")
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    spec = load_spec()
    build()
    info = driver("info")
    refusal = check_build(info)
    if refusal:
        raise SystemExit(f"perfbench: refusing to time this build: {refusal}")
    if args.self_test:
        self_test()
        return

    work = fresh_work_dir(args.workload)
    if args.workload == "serve-mix":
        metrics, attempted, failed, detail = run_serve(
            args.seed, args.seconds, args.trace, work)
    else:
        metrics, attempted, failed, detail = run_cold(
            args.workload, args.seed, args.seconds, args.trace, work)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, build=info)
    results = os.path.join(ROOT, ".bench_build", "perfbench-results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, stem), "w") as out:
        json.dump({"detail": detail, "metrics": metrics, "attempted": attempted,
                   "failed": failed}, out, indent=1)
    detail.pop("per_job_reconcile", None)
    print(json.dumps({"detail": detail}))
    emit(metrics, group, attempted, failed)


if __name__ == "__main__":
    main()
