"""Traced ``spinnet`` process for the cli-jobs workload.

    python3 -X importtime perfbench/trace_launcher.py OUT JOB_ID KIND -- ARGS...

Imports ``spinnet.cli``, installs the tracer, runs ``spinnet.cli.main(ARGS)``
as one op, writes the tracer snapshot to ``OUT`` and the spans to
``OUT.spans.jsonl``, and exits with the command's exit code.  The import
time is read by the parent from the ``-X importtime`` report on stderr.
"""

import json
import sys

from tracer import Tracer

import spinnet.cli


def main() -> int:
    out, job_id, kind, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_launcher.py OUT JOB_ID KIND -- ARGS...")
    tracer = Tracer().install()
    tracer.begin_op(int(job_id), kind)
    code = spinnet.cli.main(argv)
    tracer.end_op()
    tracer.uninstall()
    sys.stdout.flush()
    tracer.write_spans(out + ".spans.jsonl")
    with open(out, "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
