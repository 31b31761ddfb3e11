"""The repository's benchmark: three walls, four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload dag_cold --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and which layers
it loads):

* ``dag_cold``   — the full 8-stage paper DAG into an empty artifact store;
* ``cube_rerun`` — the attacks × defenses × recommenders cube, every cell
  forced to rebuild against a primed store;
* ``serve_read`` — a 2-worker serving fleet under a closed-loop Zipf stream;
* ``serve_churn`` — the same fleet with an attack push every few requests.

Timings are reported in seconds at a reference host speed: every sample
is scaled by a fixed probe kernel timed around it (``common.HostSpeed``),
because the host's own speed changes by ~1.4x for minutes at a time.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` adds a separate traced pass that times every layer from
outside (wrappers around each layer's public functions) and reports the
per-layer metrics, the unattributed remainder and the tracing overhead.
The last line of standard output is the JSON result; the lines before it
are a human-readable report with medians and quartiles.

Other modes:

* ``--tiny`` shrinks every workload so a run takes seconds (the
  benchmark's own tests use it);
* ``--out FILE`` appends the full run record to a JSON-lines result set;
* ``--compare A B`` prints each end-to-end metric per workload from two
  result sets with medians, quartiles and a verdict against the bound,
  and the per-layer deltas beside them;
* ``--record-reference`` stores the offline rows of this run as the
  reference for its seed (checked whenever that seed runs again).
"""

from __future__ import annotations

import os

# One BLAS thread per process: the serving workers fork from this process
# and the offline workloads share the host's two cores with nothing else.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

WORKLOADS = ("dag_cold", "cube_rerun", "serve_read", "serve_churn")
UNATTRIBUTED_LIMIT = 0.10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", metavar="FILE")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or use --compare A B)")
    return args


def load_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def find_program() -> str:
    """The program's sources, under the directory the benchmark runs from."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no program sources at ./src/repro; run from the repository root"
        )
    return src


def stamp(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(args):
    if args.workload in ("dag_cold", "cube_rerun"):
        import offline

        runner = offline.run_dag_cold if args.workload == "dag_cold" else offline.run_cube_rerun
        return runner(args.seed, args.seconds, bool(args.trace), args.tiny, args.record_reference)
    import serve

    return serve.run_serving(
        args.seed,
        args.seconds,
        bool(args.trace),
        args.tiny,
        churn=args.workload == "serve_churn",
    )


def stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    Besides the serving workers (already stopped by ``close()``, terminated
    here if a failure skipped that), creating a shared-memory segment
    starts multiprocessing's resource-tracker process.  Left alone it only
    exits after this process does, unreaped; closing its pipe and waiting
    for it ends it here instead.
    """
    if "multiprocessing" not in sys.modules:
        return
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def report(spec: dict, args, result, correct: bool) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    from stats import spread, summary

    print(f"# stamp {json.dumps(stamp(args), sort_keys=True)}")
    print(f"# {args.workload}: {result.attempted} operation(s), {result.failed} failed")
    print(f"{'metric':34s} {'unit':14s} {'value':>14s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'n':>6s}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = (
        [m["name"] for m in spec["end_to_end"]]
        if not args.trace
        else [m["name"] for m in spec["end_to_end"] if m["name"] == "setup_s"]
    )
    for name in names:
        value = result.metrics[name]
        samples = result.samples.get(name, [value])
        s = summary(samples)
        print(
            f"{name:34s} {units[name]:14s} {value:14.6g} {s['median']:12.6g} "
            f"{s['q1']:12.6g} {s['q3']:12.6g} {spread(samples):8.4f} {s['n']:6d}"
        )
    if args.trace:
        for metric in spec["per_layer"]:
            value = result.layers.get(metric["name"], 0.0)
            if value:
                print(f"{metric['name']:34s} {metric['unit']:14s} {value:14.6g}")
    for problem in result.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# correct: {correct}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if args.compare:
        from stats import compare, read_result_set

        print(compare(spec, read_result_set(args.compare[0]), read_result_set(args.compare[1])))
        return 0

    sys.path.insert(0, find_program())
    try:
        result = run_workload(args)
    finally:
        stop_children()
    result.layers["error_rate"] = result.failed / max(result.attempted, 1)
    correct = result.failed == 0 and not result.problems
    if args.trace:
        remainder = result.layers.get("unattributed_frac", 1.0)
        if not remainder < UNATTRIBUTED_LIMIT:
            correct = False
            print(
                f"perfbench: TRACED PASS FAILED — {100 * remainder:.1f}% of the "
                f"{args.workload} wall is unattributed (limit "
                f"{100 * UNATTRIBUTED_LIMIT:.0f}%): a layer is unmeasured",
                file=sys.stderr,
            )
        metrics = {
            m["name"]: {"value": float(result.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(result.metrics[m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    report(spec, args, result, correct)
    line = {
        "correct": correct,
        "attempted": int(max(result.attempted, 1)),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    if args.out:
        record = {**line, "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "stamp": stamp(args),
                  "samples": result.samples, "layers": result.layers,
                  "problems": result.problems}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
