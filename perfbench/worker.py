"""One library-workload process: import spinnet, warm up, run rounds of ops.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``READY`` on stdout when set-up is over (the parent times launch to
``READY``), then runs whole rounds until ``--seconds`` have passed, and
writes a JSON record to ``--out``.

Modes:

* ``setup``: set up, print ``READY`` and exit (repeated set-up samples);
* ``run``:   the untraced measurement;
* ``trace``: a fixed number of rounds untraced, then the same rounds again
             with the tracer installed; records the tracer snapshot and the
             two wall times, and writes the spans next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads
from tracer import Tracer

#: rounds in each pass of a traced run; each pass takes a few seconds
TRACE_ROUNDS = {"holonomy": 6, "flux-algebra": 4, "harmonic": 5}
WARMUP_ROUND = 2**20


def execute_round(ops, tracer=None, op_base=0, corrupt_index=None):
    """Run the ops of one round in order, then check each.

    Returns one record per op: (kind, latency seconds, ok, detail).  An op
    that raises is failed.  ``corrupt_index`` replaces that op's result by
    its deliberately wrong version before the checks.
    """
    results, latencies, errors = {}, [], {}
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + i, op.kind)
        t0 = clock()
        try:
            results[i] = op.run()
        except Exception:  # an op that raises is counted as failed
            errors[i] = traceback.format_exc(limit=3)
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
    if corrupt_index is not None and corrupt_index in results:
        results[corrupt_index] = ops[corrupt_index].corrupt(results[corrupt_index])
    if tracer is not None:
        tracer.enabled = False
    records = []
    for i, op in enumerate(ops):
        if i in errors:
            ok, detail = False, errors[i]
        else:
            try:
                ok, detail = op.check(results, i)
            except Exception:
                ok, detail = False, traceback.format_exc(limit=3)
        records.append((op.kind, latencies[i], bool(ok), detail))
    if tracer is not None:
        tracer.enabled = True
    return records


def run_rounds(round_fn, seed, *, seconds=None, rounds=None, tracer=None):
    """Whole rounds until ``seconds`` of wall time or ``rounds`` rounds."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        if tracer is not None:
            tracer.enabled = False  # input generation is not part of any op
        ops = round_fn(seed, r)
        if tracer is not None:
            tracer.enabled = True
        records += execute_round(ops, tracer, op_base=len(records))
        r += 1
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, time.perf_counter() - start, r


def _summary(records):
    failures = [(k, d) for k, _, ok, d in records if not ok]
    return {
        "kinds": [k for k, _, _, _ in records],
        "latencies": [t for _, t, _, _ in records],
        "ok": [ok for _, _, ok, _ in records],
        "failures": failures[:5],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    p.add_argument("--out")
    args = p.parse_args(argv)
    round_fn = workloads.ROUNDS[args.workload]

    # the same warm-up ops for every seed, so that set-up time does not vary with it
    warm = execute_round(round_fn(0, WARMUP_ROUND)[: workloads.WARMUP_OPS[args.workload]])
    warm_ok = all(ok for _, _, ok, _ in warm)
    print("READY", flush=True)
    for kind, _, ok, detail in warm:
        if not ok:
            print(f"warm-up {kind} failed: {detail}", file=sys.stderr)
    if args.mode == "setup":
        return 0 if warm_ok else 1

    out = {"warmup_ok": warm_ok}
    if args.mode == "run":
        records, wall, rounds = run_rounds(round_fn, args.seed, seconds=args.seconds)
        out.update(_summary(records), wall=wall, rounds=rounds)
    else:
        n = TRACE_ROUNDS[args.workload]
        plain, plain_wall, _ = run_rounds(round_fn, args.seed, rounds=n)
        tracer = Tracer().install(workloads)
        traced, traced_wall, _ = run_rounds(round_fn, args.seed, rounds=n, tracer=tracer)
        tracer.uninstall()
        tracer.write_spans(args.out + ".spans.jsonl")
        out.update(_summary(plain + traced), rounds=n, plain_op_s=sum(t for _, t, _, _ in plain),
                   traced_op_s=sum(t for _, t, _, _ in traced), plain_wall=plain_wall,
                   traced_wall=traced_wall, snapshot=tracer.snapshot())
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
