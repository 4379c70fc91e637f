"""Run one benchmark workload of circleflow and print its metrics.

    python3 bench/run.py --workload flow-euclid --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from the `src/` directory next to
this one.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  The line
before it holds the run's metadata.  A traced run also writes its spans as
gzip-compressed JSON lines to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("flow-euclid", "newton-hyper", "check-exist")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit(root: Path):
    """HEAD of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "circleflow" / "__init__.py").is_file():
        print(f"error: no circleflow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import circleflow
    from circleflow import conditions

    if Path(circleflow.__file__).resolve().parent != (SRC / "circleflow").resolve():
        print(f"error: imported circleflow from {circleflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    result, meta = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, spans
    )
    thread_count = getattr(conditions, "_thread_count", None)
    meta.update(
        cpu_model=cpu_model(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        commit=git_commit(ROOT),
        circleflow_threads_env=os.environ.get("CIRCLEFLOW_THREADS"),
        scan_threads=thread_count(None) if thread_count else None,
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
