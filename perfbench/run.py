#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload reproduce|plan|serve-point|serve-batch \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the shipped binaries
(`reproduce`, `hmcs-serve`) and the in-process harness
(`perfbench/harness`) with cargo, runs the workload on inputs drawn from
the seed, checks the outputs, and prints a ledger line followed, last,
by one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
ones. perfbench/README.md defines every metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 150
GOLDEN_SEED = 2005

ARTEFACTS = [
    "table1", "table2", "fig4", "fig5", "fig6", "fig7", "claims",
    "ablation-accounting", "ablation-hops", "ablation-service", "packet", "coc",
    "bounds", "optimize", "sensitivity", "topology",
]
# Which simulator an artefact's simulation share is charged to.
FLOW_ARTEFACTS = [
    "fig4", "fig5", "fig6", "fig7", "claims", "ablation-accounting", "ablation-hops",
    "ablation-service", "bounds",
]
# Metric names and units, in report order, come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def workers():
    """The program's worker counts: nproc, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def child_env():
    env = dict(os.environ)
    env.pop("HMCS_SIM_BUDGET", None)  # paper budget
    env.pop("HMCS_METRICS", None)
    env["HMCS_POOL_WORKERS"] = str(workers())
    return env


def host_steal_s():
    """CPU seconds the hypervisor has taken from this machine's CPUs so far
    (the steal column of /proc/stat), or None where it is not accounted."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Builds the shipped binaries and the harness; cargo's output goes to
    stderr so stdout stays the result channel."""
    env = {**os.environ, "CARGO_TARGET_DIR": str(target_dir())}
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "hmcs-bench",
         "--bin", "reproduce", "-p", "hmcs-serve", "--bin", "hmcs-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         str(HERE / "harness" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno()).returncode:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return {name: release / name for name in ("reproduce", "hmcs-serve", "hmcs-perfbench")}


class Child:
    """A finished child process with its own wall clock and rusage."""

    def __init__(self, cmd, capture=True):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(c) for c in cmd], cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        )
        chunks = []
        reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read())) if capture else None
        if reader:
            reader.start()
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        timer.cancel()
        if reader:
            reader.join()
            proc.stdout.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.stdout = chunks[0].decode() if chunks else ""
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def harness(bins, *args):
    child = Child([bins["hmcs-perfbench"], *args])
    if child.code != 0:
        raise RuntimeError(f"hmcs-perfbench {args[0]} exited {child.code}")
    return json.loads(child.stdout)


def read_spans(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    os.remove(path)
    return benchlib.layer_totals(spans)


def per_request(totals, name, by_work=False):
    t = totals.get(name)
    if not t:
        return 0.0
    return 1e6 * t["self_s"] / (t["work"] if by_work else t["count"])


def per_lane(totals, name):
    t = totals.get(name)
    return 1e6 * t["dur_s"] / t["work"] if t and t["work"] else 0.0


# --- reproduce ---------------------------------------------------------

def sim_seed(seed):
    """16 simulation seeds from the goldens' seed on, each keeping every
    claim; seed 0 (mod 16) is the goldens' own."""
    return GOLDEN_SEED + seed % 16


def reproduce_checked(bins, seed, k):
    """One fresh `reproduce all --csv DIR`, then the golden and claims check."""
    out = OUT / f"reproduce-{os.getpid()}-{k}"
    shutil.rmtree(out, ignore_errors=True)
    run = Child([bins["reproduce"], "all", "--seed", sim_seed(seed), "--csv", out], capture=False)
    ok = run.code == 0
    if ok:
        check = harness(bins, "reproduce-check", "--dir", out, "--golden", ROOT / "results",
                        "--sim-seed", sim_seed(seed))
        ok = check["golden_diffs"] == 0 and check["claims_failed"] == 0
    shutil.rmtree(out, ignore_errors=True)
    return ok, run


def reproduce(bins, a):
    setups = []
    for _ in range(11):
        child = Child([bins["reproduce"], "table1"], capture=False)
        if child.code != 0:
            raise RuntimeError("reproduce table1 failed")
        setups.append(child.cpu_s)
    runs, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while len(runs) < (1 if a.trace else 3) or (
        not a.trace and time.perf_counter() - start < a.seconds
    ):
        ok, run = reproduce_checked(bins, a.seed, len(runs))
        attempted, failed = attempted + 1, failed + (not ok)
        runs.append(run)
    details = {"sim_seed": sim_seed(a.seed), "repetitions": len(runs)}
    walls = sorted(r.wall_s for r in runs)
    values = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "cpu_s": median(r.cpu_s for r in runs),
        "p50_us": 1e6 * benchlib.nearest_rank(walls, 0.5),
        "p99_us": 1e6 * benchlib.nearest_rank(walls, 0.99),
        "rps_at_slo": len(walls) / sum(walls),
        "cpu_us_per_req": 1e6 * median(r.cpu_s for r in runs),
        "peak_rss_mb": median(r.peak_rss_mb for r in runs),
    }
    if not a.trace:
        return values, attempted, failed, details

    # The harness splits each artefact itself, from the same calls its
    # spans wrap, so the traced pass needs no spans file.
    plain = harness(bins, "reproduce-layers", "--sim-seed", sim_seed(a.seed))
    traced = harness(bins, "reproduce-layers", "--sim-seed", sim_seed(a.seed), "--trace")
    attempted += 2
    arts = traced["artefacts"]
    for name in ARTEFACTS:
        values[f"reproduce.{name}.analysis_s"] = arts[name]["analysis_s"]
        values[f"reproduce.{name}.sim_s"] = arts[name]["sim_s"]
    flow_s = sum(arts[n]["sim_s"] for n in FLOW_ARTEFACTS)
    hits, misses = traced["simcache_hits"], traced["simcache_misses"]
    busy, idle = traced["shard_busy_us"], traced["shard_idle_us"]
    values.update({
        "simcache.hit_ratio": hits / max(1, hits + misses),
        "sim.flow.s": flow_s,
        "sim.packet.s": arts["packet"]["sim_s"],
        "sim.coc.s": arts["coc"]["sim_s"],
        "sim.shard.s": arts["topology"]["sim_s"],
        "sim.events_per_s": (traced["flow_events"] + traced["packet_events"])
        / max(1e-9, flow_s + arts["packet"]["sim_s"]),
        "sim.shard.busy_ratio": busy / max(1, busy + idle),
        "identify.nodes_per_s": traced["identify_nodes"] / max(1e-9, traced["identify_s"]),
        "trace.overhead_ratio": traced["total_s"] / plain["total_s"] - 1.0,
    })
    return values, attempted, failed, details


# --- plan ----------------------------------------------------------------

def plan(bins, a):
    common = ["--seed", a.seed, "--workers", workers()]
    setups = [harness(bins, "plan", *common, "--seconds", 0, "--setup-only")["setup_cpu_s"]
              for _ in range(4)]
    spans_path = OUT / f"spans-{os.getpid()}.jsonl"
    trace = ["--trace", "--spans", spans_path] if a.trace else []
    r = harness(bins, "plan", *common, "--seconds", a.seconds, *trace)
    setups.append(r["setup_cpu_s"])
    details = {k: r[k] for k in ("plans", "space_size", "decided", "pruned", "frontier")}
    details["units"] = len(r["wall_s"])
    plans = r["plan_us"]
    values = {
        "setup_s": median(setups),
        "wall_s": median(r["wall_s"]),
        "cpu_s": median(r["cpu_s"]),
        "p50_us": benchlib.supported_percentile(plans, 0.5),
        "p99_us": benchlib.supported_percentile(plans, 0.99),
        "rps_at_slo": len(plans) / (sum(plans) * 1e-6),
        "cpu_us_per_req": 1e6 * median(r["cpu_s"]) / r["plans"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    if not a.trace:
        return values, r["attempted"], r["failed"], details

    t = read_spans(spans_path)
    pruned = t["optimize.pruned"]
    values.update({
        "kernel.setup_us_per_lane": per_lane(t, "kernel.setup"),
        "kernel.solve_us_per_lane": per_lane(t, "kernel.solve"),
        "kernel.iterations_mean": r["kernel_iterations_mean"],
        "optimize.pruned_s": pruned["dur_s"] / pruned["count"],
        "optimize.decided_per_s": pruned["count"] * r["decided"] / r["plans"] / pruned["dur_s"],
        "optimize.prune_ratio": r["pruned"] / r["space_size"],
        "sensitivity.s": t["sensitivity"]["dur_s"] / t["sensitivity"]["count"],
        "trace.overhead_ratio": median(r["wall_traced_s"]) / median(r["wall_untraced_s"]) - 1.0,
    })
    return values, r["attempted"], r["failed"], details


# --- serve-point / serve-batch ----------------------------------------------

def serve(bins, a, kind):
    spans_path = OUT / f"spans-{os.getpid()}.jsonl"
    trace = ["--trace", "--spans", spans_path] if a.trace else []
    r = harness(bins, "serve", "--workload", kind, "--server", bins["hmcs-serve"],
                "--seed", a.seed, "--seconds", a.seconds, "--workers", workers(), *trace)
    details = {
        "server_flags": r["server_flags"], "reference_rate": r["reference_rate"],
        "p99_limit_us": r["p99_limit_us"],
        "bodies_checked": r["bodies_checked"], "bodies_mismatched": r["bodies_mismatched"],
    }
    rate, achieved = benchlib.ladder_pick(r["ladder"], r["p99_limit_us"])
    details["ladder_rung"] = rate
    details["ladder_failures"] = {str(int(g["rate"])): g["non2xx"] + g["dropped"]
                                  for g in r["ladder"]}
    if not a.trace:
        slices = r["slices"]

        def sliced(q):
            """Median over the reference slices of each slice's percentile;
            None when a slice is too small to support it."""
            values = [benchlib.supported_percentile(s["latency_us"], q, s["non2xx"] + s["dropped"])
                      for s in slices]
            return None if None in values else median(values)

        # Latency read while the generator ran late is not the server's;
        # the ledger marks it invalid.
        lag = benchlib.nearest_rank(sorted(x for s in slices for x in s["send_lag_us"]), 0.99)
        details["send_lag_p99_us"] = lag
        details["latency_valid"] = lag <= r["p99_limit_us"]
        details["latency_samples"] = [len(s["latency_us"]) + s["non2xx"] + s["dropped"]
                                      for s in slices]
        values = {
            "setup_s": median(r["setup_cpu_s"]),
            "wall_s": median(p["wall_s"] for p in r["probes"]),
            # The slices' fixed request count at a fixed rate: closed-loop
            # probes batch differently from run to run, and their CPU
            # swings with that.
            "cpu_s": sum(s["server_cpu_s"] for s in slices),
            "p50_us": sliced(0.5),
            "p99_us": sliced(0.99),
            "rps_at_slo": achieved,
            "cpu_us_per_req": 1e6 * sum(s["server_cpu_s"] for s in slices)
            / max(1, sum(s["completed"] for s in slices)),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        return values, r["attempted"], r["failed"], details

    ref = r["reference"]
    t = read_spans(spans_path)
    counters, hists = benchlib.metrics_delta(r["metrics_before"], r["metrics_after"])
    c = lambda k: counters.get(k, 0)  # noqa: E731
    n, total_us = hists.get("serve.request_us", (0, 0))
    request_us_mean = total_us / n if n else 0.0
    hits, computations = c("serve.coalesce.hits"), c("serve.coalesce.computations")
    # One replayed request covers every layer the server runs except
    # waiting; what the server spends beyond it is the window wait.
    replayed_us = 1e6 * t["request"]["dur_s"] / t["request"]["count"]
    values = {
        "wall_s": r["probe"]["wall_s"],
        "p50_us": benchlib.supported_percentile(ref["latency_us"], 0.5,
                                                ref["non2xx"] + ref["dropped"]),
        "p99_us": benchlib.supported_percentile(ref["latency_us"], 0.99,
                                                ref["non2xx"] + ref["dropped"]),
        "rps_at_slo": achieved,
        "kernel.setup_us_per_lane": per_lane(t, "kernel.setup"),
        "kernel.solve_us_per_lane": per_lane(t, "kernel.solve"),
        "kernel.iterations_mean": r["kernel_iterations_mean"],
        "model.evaluate_us": per_request(t, "model.evaluate", by_work=True),
        "http.parse_us": per_request(t, "http.parse"),
        "http.serialize_us": per_request(t, "http.serialize"),
        "api.parse_us": per_request(t, "api.parse"),
        "api.render_us": per_request(t, "api.render"),
        "coalesce.hit_ratio": hits / max(1, hits + computations),
        "batch.lanes_per_solve": c("serve.batch.items") / max(1, c("serve.batch.batches")),
        "batch.window_wait_us": request_us_mean - replayed_us,
        "server.request_us_mean": request_us_mean,
        "server.shed": c("serve.admission.rejected"),
        "server.deadline_expired": c("serve.deadline.expired"),
        "client.send_lag_p99_us": benchlib.nearest_rank(sorted(ref["send_lag_us"]), 0.99),
        "client.sent": ref["sent"],
        "client.completed": ref["completed"],
        "trace.overhead_ratio": median(r["replay_traced_s"]) / median(r["replay_untraced_s"])
        - 1.0,
    }
    return values, r["attempted"], r["failed"], details


WORKLOADS = {
    "reproduce": reproduce,
    "plan": plan,
    "serve-point": lambda bins, a: serve(bins, a, "point"),
    "serve-batch": lambda bins, a: serve(bins, a, "batch"),
}


# --- ledger ----------------------------------------------------------------

def first_line(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout.strip() else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the sources that build the measured program, so results
    from a checkout without git history still name the code they ran."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench", ".cargo"):
        paths += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def ledger(a, details):
    cpu_model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    return {
        "schema": "hmcs-perfbench-ledger/1",
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "host_cpu": cpu_model, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "rustc": first_line(["rustc", "-V"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "hmcs_sim_budget": "paper (HMCS_SIM_BUDGET unset for every child)",
        "workers": workers(), **details,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"{ROOT} holds no repository checkout to build")
        return 2
    bins = build()
    OUT.mkdir(exist_ok=True)
    steal0 = host_steal_s()
    values, attempted, failed, details = WORKLOADS[a.workload](bins, a)
    steal1 = host_steal_s()
    # Steal slows every wall-clock reading of the run; it explains a slow
    # run, it is not the program's.
    details["host_steal_s"] = None if steal0 is None else round(steal1 - steal0, 2)
    values["error_ratio"] = failed / max(1, attempted)
    # What the run measured beyond the metrics it reports goes to the
    # ledger, so the wall-clock readings of an untraced run stay visible.
    metric_names = PER_LAYER if a.trace else END_TO_END
    details["other_metrics"] = {k: v for k, v in values.items() if k not in metric_names}
    reported = {}
    # A layer the workload does not exercise reads 0.
    for name, unit in metric_names.items():
        value = values.get(name, 0.0 if a.trace else None)
        if value is None:
            raise RuntimeError(f"too few samples for {name}")
        reported[name] = {"value": float(value), "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": reported}
    record = ledger(a, details)
    (OUT / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps({"ledger": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"ledger": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
