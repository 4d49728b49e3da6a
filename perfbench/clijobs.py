"""The ``cli-jobs`` workload: job list, output parsing and reference checks.

Each job is one ``spinnet`` command (``python -m spinnet.cli``) run as a
fresh process from the checkout root.  Outputs are compared row by row with
the reference rows in ``perfbench/reference/``: same row count,
multiplicities and labels, and values within 1e-9 relative (absolute below
magnitude 1).  The Monte Carlo rows of ``inner-product`` depend on the seed,
so they are checked against the exact row of the same output instead: within
five standard errors.

Record the reference rows (from the current sources) with

    python3 perfbench/clijobs.py --record
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
VALUE_RTOL = 1e-9
MC_SIGMAS = 5.0

#: (name, arguments); "{seed}" is replaced by the job seed.  The first seven
#: are the README commands, then the two large volume jobs.
JOBS = (
    ("area-spectrum", ["--command", "area-spectrum", "--input", "fixtures/one_crossing.yaml",
                       "--max-spin", "2"]),
    ("volume-spectrum", ["--command", "volume-spectrum", "--input", "fixtures/star4.yaml",
                         "--max-spin", "1", "--gamma", "0.2375"]),
    ("flux-matrix", ["--command", "flux-matrix", "--input", "fixtures/kinked_crossing.yaml"]),
    ("inner-product", ["--command", "inner-product", "--input", "fixtures/theta.yaml",
                       "--samples", "100000", "--seed", "{seed}"]),
    ("holonomy", ["--command", "holonomy", "--input", "fixtures/holonomy_line.yaml"]),
    ("commutator-check", ["--command", "commutator-check", "--input",
                          "fixtures/flux_star.yaml"]),
    ("basis-enum", ["--command", "basis-enum", "--input", "fixtures/theta.yaml",
                    "--max-spin", "2"]),
    ("volume-star4-max3", ["--command", "volume-spectrum", "--input", "fixtures/star4.yaml",
                           "--max-spin", "3"]),
    ("volume-star5-max2", ["--command", "volume-spectrum", "--input",
                         "perfbench/jobs/star5.yaml", "--max-spin", "2"]),
)
JOB_ARGS = dict(JOBS)
#: a round runs this job twice, so that op_tail_s has several samples of it
TAIL_JOB = "volume-star4-max3"
#: this job (about 6 s) runs once per run, in the first round
ONCE_JOB = "volume-star5-max2"
MC_JOB = "inner-product"


def job_args(name: str, seed: int) -> list[str]:
    return [a.replace("{seed}", str(seed)) for a in JOB_ARGS[name]]


def parse_rows(text: str) -> list[tuple[float, int, str]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "value,multiplicity,labels":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        v, m, lab = line.split(",", 2)
        rows.append((float(v), int(m), lab))
    return rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b), 1.0)


def check_output(name: str, text: str) -> tuple[bool, str]:
    """Compare one job's CSV output with its reference rows."""
    try:
        got = parse_rows(text)
        want = parse_rows((REFERENCE / f"{name}.csv").read_text())
    except (OSError, ValueError) as exc:
        return False, f"unreadable output or reference: {exc}"
    if len(got) != len(want):
        return False, f"{len(got)} rows, reference has {len(want)}"
    if name == MC_JOB:
        exact_re, exact_im, mc_re, mc_im, err = (v for v, _, _ in got)
        for i in (0, 1):
            if not _close(got[i][0], want[i][0]):
                return False, f"exact row {i}: {got[i][0]!r} != {want[i][0]!r}"
        dev = max(abs(mc_re - exact_re), abs(mc_im - exact_im))
        if not dev <= MC_SIGMAS * err:
            return False, f"Monte Carlo off by {dev:.3g} > {MC_SIGMAS} x {err:.3g}"
        compare = [0, 1]
    else:
        compare = range(len(got))
    for i in compare:
        (gv, gm, gl), (wv, wm, wl) = got[i], want[i]
        if gm != wm or gl != wl:
            return False, f"row {i}: ({gm}, {gl!r}) != ({wm}, {wl!r})"
        if not _close(gv, wv):
            return False, f"row {i}: value {gv!r} != {wv!r}"
    return True, f"{len(got)} rows match"


def record(root: Path) -> None:
    """Write the reference rows from the sources under ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    REFERENCE.mkdir(exist_ok=True)
    for name, _ in JOBS:
        proc = subprocess.run(
            [sys.executable, "-m", "spinnet.cli", *job_args(name, 0)],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        (REFERENCE / f"{name}.csv").write_text(proc.stdout)
        print(f"recorded {name}: {len(parse_rows(proc.stdout))} rows")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/clijobs.py --record")
    record(HERE.parent)
