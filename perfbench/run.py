"""Run one workload of the goal-stream benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload bank_durable --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and writes its spans, one JSON object
per line, to ``.perfbench/trace/<workload>-seed<seed>.jsonl``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every goal matched its oracle, 1 when one did not
(the result line is still printed, with ``"correct": false``), 2 when
the benchmark could not run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space inside the checkout: store files live under ``tmp``
#: for the length of one run; spans are written under ``trace``.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    tmp_root = os.path.join(OUT_DIR, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=tmp_root)
    # Scratch files of SQLite and of tempfile go here too, not outside
    # the checkout.
    saved = {k: os.environ.get(k) for k in ("SQLITE_TMPDIR", "TMPDIR")}
    os.environ.update(SQLITE_TMPDIR=workdir, TMPDIR=workdir)
    try:
        return _run(args, workdir)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from perfbench import harness
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print("perfbench: cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(sorted(WORKLOADS))), file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        result, rec = harness.run_traced(workload, args.seconds)
        trace_dir = os.path.join(OUT_DIR, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))
        rec.write(trace_path)
        result.notes.append("spans written to %s" % os.path.relpath(trace_path, ROOT))
        units = {name: unit for name, unit, _ in harness.PER_LAYER}
    else:
        result = harness.run_untraced(workload, args.seconds)
        units = dict(harness.END_TO_END)

    for problem in result.problems[:20]:
        print("FAILED %s" % problem)
    for note in result.notes:
        print(note)
    for name, unit in units.items():
        print("%-34s %14.6g %s" % (name, result.metrics[name], unit))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
