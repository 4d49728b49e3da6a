"""Self-test of the benchmark's oracles: a corrupted result is a failed op.

    python3 perfbench/selftest.py          # from the root of a checkout

For every library workload, one round runs as is and every op must pass.
Then, for every op kind, the round runs again with the result of one op of
that kind replaced by its deliberately wrong version; that op must be
counted as failed.  Ops checked by the same law (a holonomy and the other
holonomies of its composition or inverse check) may fail with it.  For
every cli-jobs job, the reference output passes its check and a copy with
one value shifted by 1e-6 relative fails it.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import clijobs  # noqa: E402
import workloads  # noqa: E402
from worker import execute_round  # noqa: E402


def corrupt_csv(text: str) -> str:
    lines = text.splitlines()
    value, rest = lines[1].split(",", 1)
    lines[1] = f"{float(value) * (1 + 1e-6) + 1e-6!r},{rest}"
    return "\n".join(lines) + "\n"


def main() -> int:
    problems = []
    for name, round_fn in workloads.ROUNDS.items():
        ops = round_fn(0, 0)
        clean = [j for j, (_, _, ok, _) in enumerate(execute_round(ops)) if not ok]
        if clean:
            problems.append(f"{name}: uncorrupted ops {clean} failed")
        first_of_kind = {}
        for i, op in enumerate(ops):
            first_of_kind.setdefault(op.kind, i)
        for kind, i in first_of_kind.items():
            records = execute_round(ops, corrupt_index=i)
            failed = [j for j, (_, _, ok, _) in enumerate(records) if not ok]
            if i not in failed:
                problems.append(f"{name}/{kind}: corrupted op {i} passed")
            else:
                print(f"PASS {name}/{kind}: corrupted result counted as failed, failed ops"
                      f" {failed} ({records[i][3].splitlines()[0]})")
    for name, _ in clijobs.JOBS:
        text = (clijobs.REFERENCE / f"{name}.csv").read_text()
        good, _ = clijobs.check_output(name, text)
        bad, detail = clijobs.check_output(name, corrupt_csv(text))
        if not good or bad:
            problems.append(f"cli-jobs/{name}: reference ok={good}, corrupted ok={bad}")
        else:
            print(f"PASS cli-jobs/{name}: corrupted output counted as failed ({detail})")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
