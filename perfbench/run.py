#!/usr/bin/env python3
"""spinnet benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload holonomy --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; spinnet is imported from ``src/``.  Every
workload is a closed loop with one client: the next op starts when the
previous one has finished.  Library workloads run in one worker process
(``worker.py``) for ``--seconds``; ``cli-jobs`` starts one ``spinnet``
process per job and runs one round of jobs per 8 s of ``--seconds``.  BLAS
threads are pinned to 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same ops
untraced and then traced and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files go to
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import clijobs  # noqa: E402
from tracer import layer_metrics, merge_snapshots  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("cli-jobs", "holonomy", "flux-algebra", "harmonic")
#: nearest-rank percentile of op_tail_s per workload (see README.md)
TAIL_PCT = {"cli-jobs": 89, "holonomy": 96, "flux-algebra": 97, "harmonic": 94}
SETUP_SAMPLES = 7  # half before and half after the timed ops, to average machine drift
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 170.0
#: cli-jobs runs one round per this many seconds of --seconds (see run_cli)
CLI_ROUND_SECONDS = 8.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics: name -> unit
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.self_s": "s",
    "su2.su2_exp.calls": "count",
    "cyl.holonomy.calls": "count",
    "cyl.holonomy.self_s": "s",
    "cyl.holonomy.exp_per_call": "ratio",
    "cyl.cylfun.built": "count",
    "cyl.cylfun.labels_checked": "count",
    "cyl.promote.calls": "count",
    "cyl.promote.self_s": "s",
    "cyl.self_s": "s",
    "graphs.ensure_valid.calls": "count",
    "graphs.punctures.calls": "count",
    "graphs.punctures.self_s": "s",
    "graphs.common_refinement.calls": "count",
    "graphs.self_s": "s",
    "operators.flux.self_s": "s",
    "operators.matrix.self_s": "s",
    "operators.matrix.nonzero_ratio": "ratio",
    "operators.volume_vertex_matrix.calls": "count",
    "operators.volume_vertex_matrix.self_s": "s",
    "operators.volume_vertex_matrix.feasible_ratio": "ratio",
    "operators.spectrum.self_s": "s",
    "operators.self_s": "s",
    "su2.intertwiner_basis.calls": "count",
    "su2.intertwiner_basis.self_s": "s",
    "su2.clebsch_gordan.calls": "count",
    "su2.clebsch_gordan.self_s": "s",
    "su2.wigner_entry.calls": "count",
    "su2.wigner_entry.self_s": "s",
    "su2.haar.self_s": "s",
    "cyl.mc.samples_per_s": "1/s",
    "cyl.gram.self_s": "s",
    "su2.wigner.self_s": "s",
    "su2.self_s": "s",
    "bench.self_s": "s",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: bases of the ratio metrics: (numerator description, denominator metric)
RATIO_BASES = {
    "cyl.holonomy.exp_per_call": ("su2.su2_exp.calls", "cyl.holonomy.calls"),
    "operators.volume_vertex_matrix.feasible_ratio": (
        "non-empty intertwiner spaces", "operators.volume_vertex_matrix.calls"),
    "operators.matrix.nonzero_ratio": ("nonzero entries", "entries of returned matrices"),
    "cyl.mc.samples_per_s": ("Monte Carlo samples", "mc_inner_product span seconds"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


ENV = child_env()


def check_checkout() -> None:
    missing = [p for p in ("src/spinnet/__init__.py", "src/spinnet/cli.py", "fixtures/star4.yaml")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(
            f"run from the root of a spinnet checkout; missing {', '.join(missing)}"
        )


def nearest_rank(values, pct) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1]


def run_child(cmd, stdout_path, stderr_path):
    """Run a child to completion; returns (wall s, exit code, max RSS kB)."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def parse_importtime(text: str, top: str, nested: str) -> tuple[float, float]:
    """Cumulative seconds of the top-level import ``top`` and of ``nested``."""
    top_s = nested_s = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        cumulative = int(parts[1]) * 1e-6
        if name.strip() == top and len(name) - len(name.lstrip()) == 1:
            top_s = cumulative
        elif name.strip() == nested:
            nested_s = cumulative
    return top_s, nested_s


def import_probes() -> tuple[float, float]:
    tops, nested = [], []
    for i in range(IMPORT_SAMPLES):
        err = SCRATCH / f"importtime-{i}.txt"
        _, code, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import spinnet.cli"],
            os.devnull, err,
        )
        if code != 0:
            raise BenchError("importing spinnet.cli failed:\n" + err.read_text()[-2000:])
        t, s = parse_importtime(err.read_text(), "spinnet.cli", "scipy.sparse")
        tops.append(t)
        nested.append(s)
    return statistics.median(tops), statistics.median(nested)


# ---------------------------------------------------------------------------
# library workloads


def worker_cmd(workload, seed, seconds, mode, out):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(out)]


def launch_worker(cmd):
    """Start a worker and time launch to READY; returns (process, setup s)."""
    err = open(SCRATCH / "worker-stderr.txt", "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV,
                            text=True)
    err.close()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    return proc, setup, line.strip() == "READY"


def finish_worker(proc) -> int:
    try:
        proc.stdout.read()
        return proc.wait(timeout=CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def worker_failure(what) -> BenchError:
    return BenchError(f"{what}:\n" + (SCRATCH / "worker-stderr.txt").read_text()[-3000:])


def library_setup_samples(workload, seed, count) -> list[float]:
    samples = []
    for _ in range(count):
        proc, setup, ready = launch_worker(
            worker_cmd(workload, seed, 0, "setup", SCRATCH / "setup.json"))
        if finish_worker(proc) != 0 or not ready:
            raise worker_failure("worker set-up failed")
        samples.append(setup)
    return samples


def run_library(workload, seed, seconds) -> dict:
    # one unmeasured start compiles the sources to bytecode in the checkout
    proc, _, _ = launch_worker(worker_cmd(workload, seed, 0, "setup", SCRATCH / "setup.json"))
    finish_worker(proc)
    before = (SETUP_SAMPLES - 1) // 2
    setups = library_setup_samples(workload, seed, before)
    out = SCRATCH / "run.json"
    proc, setup, ready = launch_worker(worker_cmd(workload, seed, seconds, "run", out))
    if finish_worker(proc) != 0 or not ready:
        raise worker_failure("worker run failed")
    setups.append(setup)
    setups += library_setup_samples(workload, seed, SETUP_SAMPLES - 1 - before)
    rec = json.loads(out.read_text())
    return {
        "latencies": rec["latencies"],
        "ok": rec["ok"] + [rec["warmup_ok"]],
        "failures": rec["failures"],
        "setup": setups,
        "peak_rss_mb": rec["peak_rss_kb"] / 1024.0,
        "kinds": rec["kinds"],
    }


def trace_library(workload, seed) -> dict:
    out = SCRATCH / "trace.json"
    proc, _, ready = launch_worker(worker_cmd(workload, seed, 0, "trace", out))
    if finish_worker(proc) != 0 or not ready:
        raise worker_failure("traced worker failed")
    rec = json.loads(out.read_text())
    return {
        "ok": rec["ok"],
        "failures": rec["failures"],
        "snapshot": rec["snapshot"],
        "overhead": rec["traced_op_s"] / rec["plain_op_s"] - 1.0,
        "spans": str(out) + ".spans.jsonl",
        "jobs": None,
    }


# ---------------------------------------------------------------------------
# cli-jobs


def cycle_order(seed, cycle) -> list[str]:
    """Every cycle: the seven README jobs and the tail job twice; cycle 0
    also the once-per-run job."""
    names = [name for name, _ in clijobs.JOBS if name != clijobs.ONCE_JOB]
    names.append(clijobs.TAIL_JOB)
    if cycle == 0:
        names.append(clijobs.ONCE_JOB)
    random.Random(f"{seed}/{cycle}").shuffle(names)
    return names


def job_seed(seed, cycle) -> int:
    return seed * 1000 + cycle


def run_job(name, seed, cycle, launcher=None):
    """One job as a fresh process; returns (wall, ok, detail, rss kB, stderr)."""
    args = clijobs.job_args(name, job_seed(seed, cycle))
    if launcher is None:
        cmd = [sys.executable, "-m", "spinnet.cli", *args]
    else:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "trace_launcher.py"),
               str(launcher), str(cycle), name, "--", *args]
    out, err = SCRATCH / "job-stdout.txt", SCRATCH / "job-stderr.txt"
    wall, code, rss = run_child(cmd, out, err)
    stderr = err.read_text()
    if code != 0:
        return wall, False, f"exit {code}: {stderr[-500:]}", rss, stderr
    ok, detail = clijobs.check_output(name, out.read_text())
    return wall, ok, detail, rss, stderr


def cli_setup_samples(count) -> list[float]:
    samples = []
    for _ in range(count):
        wall, code, _ = run_child([sys.executable, "-m", "spinnet.cli", "--help"],
                                  os.devnull, SCRATCH / "setup-stderr.txt")
        if code != 0:
            raise BenchError("spinnet --help failed")
        samples.append(wall)
    return samples


def run_cli(seed, seconds) -> dict:
    """A fixed number of rounds, so that every run holds the same mix of
    jobs; a round takes about 8.3 s and the once-per-run job about 6 s."""
    # one unmeasured start compiles the sources to bytecode in the checkout
    run_child([sys.executable, "-m", "spinnet.cli", "--help"], os.devnull, os.devnull)
    setups = cli_setup_samples(SETUP_SAMPLES // 2)
    latencies, ok, failures, kinds, rss = [], [], [], [], 0
    for cycle in range(max(1, round(seconds / CLI_ROUND_SECONDS))):
        for name in cycle_order(seed, cycle):
            wall, good, detail, job_rss, _ = run_job(name, seed, cycle)
            latencies.append(wall)
            ok.append(good)
            kinds.append(name)
            rss = max(rss, job_rss)
            if not good:
                failures.append((name, detail))
    setups += cli_setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    return {"latencies": latencies, "ok": ok, "failures": failures, "setup": setups,
            "peak_rss_mb": rss / 1024.0, "kinds": kinds}


def trace_cli(seed) -> dict:
    run_child([sys.executable, "-m", "spinnet.cli", "--help"], os.devnull, os.devnull)
    names = list(dict.fromkeys(cycle_order(seed, 0)))  # each of the nine jobs once
    ok, failures, snaps, jobs = [], [], [], []
    plain_total = traced_total = 0.0
    spans_path = SCRATCH / "trace-spans.jsonl"
    with open(spans_path, "w") as spans:
        for name in names:
            plain, good, detail, _, _ = run_job(name, seed, 0)
            ok.append(good)
            if not good:
                failures.append((name, detail))
            snap_path = SCRATCH / "trace-job.json"
            traced, good, detail, _, stderr = run_job(name, seed, 0, launcher=snap_path)
            ok.append(good)
            if not good:
                failures.append((name, detail))
                continue
            snap = json.loads(snap_path.read_text())
            spans.write(Path(str(snap_path) + ".spans.jsonl").read_text())
            snaps.append(snap)
            plain_total += plain
            traced_total += traced
            import_s, _ = parse_importtime(stderr, "spinnet.cli", "scipy.sparse")
            jobs.append({"name": name, "wall": plain, "traced": traced, "import_s": import_s,
                         "metrics": layer_metrics(snap)})
    return {
        "ok": ok,
        "failures": failures,
        "snapshot": merge_snapshots(snaps),
        "overhead": traced_total / plain_total - 1.0 if plain_total else 0.0,
        "spans": str(spans_path),
        "jobs": jobs,
    }


# ---------------------------------------------------------------------------
# reports


def end_to_end(workload, res) -> dict:
    lat = res["latencies"]
    passed = sum(ok for ok in res["ok"][: len(lat)])
    return {
        "ops_per_s": passed / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": nearest_rank(lat, TAIL_PCT[workload]),
        "setup_s": statistics.median(res["setup"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def print_end_to_end(workload, seed, res, metrics, attempted, failed) -> None:
    lat = res["latencies"]
    pct = TAIL_PCT[workload]
    beyond = len(lat) - math.ceil(pct / 100.0 * len(lat))
    print(f"workload {workload}  seed {seed}  ops {len(lat)}  closed loop, one client")
    for name, value in metrics.items():
        print(f"  {name:<12} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'error_rate':<12} {failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    print(f"  op_tail_s is the nearest-rank p{pct} of {len(lat)} ops, {beyond} beyond it;"
          f" setup_s is the median of {len(res['setup'])} set-ups")
    kinds = {}
    for k, t in zip(res["kinds"], lat):
        kinds.setdefault(k, []).append(t)
    for k, ts in kinds.items():
        print(f"    {k:<18} n={len(ts):<4} median {statistics.median(ts):.4g} s"
              f"  max {max(ts):.4g} s")


def metric_base(name, metrics) -> str:
    ops, op_s = metrics["trace.ops"], metrics["trace.op_s"]
    if name in RATIO_BASES:
        num, den = RATIO_BASES[name]
        den_value = metrics.get(den)
        den_text = f"{den} = {den_value:g}" if den_value is not None else den
        return f"{num} / {den_text}"
    if name.startswith("cli.import"):
        return f"median of {IMPORT_SAMPLES} import probes under -X importtime"
    if name == "trace.overhead_ratio":
        return "traced op seconds / untraced op seconds - 1, same ops"
    if name.endswith("self_s") and op_s:
        return f"{metrics[name] / op_s:6.1%} of {op_s:.3f} s traced op time"
    if name.endswith(".calls") or name.startswith("cyl.cylfun"):
        return f"over {ops} ops"
    return ""


def print_per_layer(workload, seed, res, metrics) -> None:
    print(f"workload {workload}  seed {seed}  traced ops {metrics['trace.ops']}"
          f"  spans in {res['spans']}")
    for name, unit in PER_LAYER_UNITS.items():
        value = metrics[name]
        if value == 0 and not name.startswith(("trace.", "cli.import")):
            print(f"  {name:<46} n/a    (the traced functions behind it do no work"
                  f" on {workload})")
            continue
        print(f"  {name:<46} {value:>12.6g} {unit:<6} {metric_base(name, metrics)}")
    shares = {layer: metrics[f"{layer}.self_s"]
              for layer in ("cli", "su2", "graphs", "cyl", "operators", "bench")}
    total = metrics["trace.op_s"] or 1.0
    print("  self-time shares: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if res["jobs"]:
        print("  per job (wall untraced; import from -X importtime; main = spinnet.cli.main):")
        jobs = sorted(res["jobs"], key=lambda j: j["wall"])
        for job in jobs:
            m = job["metrics"]
            layers = {layer: m[f"{layer}.self_s"] for layer in
                      ("cli", "su2", "graphs", "cyl", "operators")}
            top = max(layers, key=layers.get)
            print(f"    {job['name']:<20} wall {job['wall']:.3f} s  import {job['import_s']:.3f} s"
                  f"  main {m['trace.op_s']:.3f} s  top layer {top} {layers[top]:.3f} s")
        median_job = jobs[len(jobs) // 2]
        print(f"  median job {median_job['name']}: import is "
              f"{median_job['import_s'] / median_job['wall']:.0%} of its wall time")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        check_checkout()
        SCRATCH.mkdir(exist_ok=True)
        if args.trace:
            if args.workload == "cli-jobs":
                res = trace_cli(args.seed)
            else:
                res = trace_library(args.workload, args.seed)
            metrics = layer_metrics(res["snapshot"])
            metrics["cli.import_s"], metrics["cli.import.scipy_s"] = import_probes()
            metrics["trace.overhead_ratio"] = res["overhead"]
            print_per_layer(args.workload, args.seed, res, metrics)
            metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
        else:
            if args.workload == "cli-jobs":
                res = run_cli(args.seed, args.seconds)
            else:
                res = run_library(args.workload, args.seed, args.seconds)
            metrics = end_to_end(args.workload, res)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    attempted = len(res["ok"])
    failed = attempted - sum(res["ok"])
    if not args.trace:
        print_end_to_end(args.workload, args.seed, res, metrics, attempted, failed)
    for kind, detail in res["failures"][:5]:
        print(f"  FAILED {kind}: {detail}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
