"""Seeded end-to-end and per-layer benchmark of treelasso.

    python3 bench/run.py --workload recon-partial --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy, and the run
fails (non-zero exit, no result line) when it is missing.  ``--workload
all`` runs the four workloads one after another, each in its own process.

With ``--trace 0`` the run makes three passes over the cycle of its workload
(see workloads.py), fewer if ``--seconds`` run out first, and prints the
end-to-end metrics, task times in reference seconds (see ``measure``).
With ``--trace 1`` it runs each task of one cycle untraced and then traced,
prints the per-layer metrics and the per-n table, and writes the spans to
``bench/out/``.  Either way every task output is checked, and the
last stdout line is one JSON object: correct, attempted, failed, metrics.
One process, one worker thread; BLAS and OpenMP are capped at one thread.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median
PASSES = 3  # passes over the cycle; each task reports its median pass
REF_LOOP = 3500  # iterations of the reference loop: about 1 ms on a quiet 2-CPU x86 host
END_TO_END_UNITS = {
    "tasks_per_s": "1/ref_s",
    "task_p50_s": "ref_s",
    "task_tail_s": "ref_s",
    "verified_share": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def import_library():
    """Import treelasso from this checkout's src/, and scipy.optimize."""
    if not (SRC / "treelasso" / "__init__.py").is_file():
        raise SystemExit(f"error: no treelasso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scipy.optimize  # noqa: F401  (the oracle imports it lazily)
    import treelasso

    if Path(treelasso.__file__).resolve().parent != SRC / "treelasso":
        raise SystemExit(f"error: treelasso was imported from {treelasso.__file__}, not {SRC}")
    return treelasso


def make_api(tl, recorder=None):
    """The library functions the tasks call, wrapped in spans when tracing."""
    api = types.SimpleNamespace(**{name: getattr(tl, name) for name in spans.SPAN_OF})
    if recorder is not None:
        for name, span in spans.SPAN_OF.items():
            keep = name in ("closure", "is_shellable", "topological_lasso_oracle")
            setattr(api, name, recorder.wrap(span, getattr(api, name), keep_result=keep))
    return api


class Setup:
    """Imports, the seeded cycle of tasks, and one untimed warm-up task.
    Every pass of a run repeats the cycle; inputs are parsed inside each
    task, so a repeat reuses no library result."""

    def __init__(self, workload_name: str, seed: int, workload=None):
        start = time.perf_counter()
        self.tl = import_library()
        self.workload = workload or workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.cycle = self.workload.cycle(self.tl, seed)
        warm = self.workload.warm_instance(self.tl, seed)
        self.warm_error = run_task(self.workload, make_api(self.tl), self.tl, warm)[1]
        self.seconds = time.perf_counter() - start
        # The cycle lives for the whole run: keep it out of the library's
        # garbage-collection passes.
        gc.collect()
        gc.freeze()


def run_task(workload, api, tl, inst) -> tuple[float, str | None]:
    """Wall time of the task itself, and the check's complaint (None if correct)."""
    start = time.perf_counter()
    try:
        out = workload.task(api, inst)
    except Exception as exc:  # a raising task is a failed task, not a crash
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, workload.check(tl, inst, out)
    except Exception as exc:
        return elapsed, f"output check raised {type(exc).__name__}: {exc}"


def tail(times: list[float]) -> tuple[float, float, int]:
    """Per-task time at the highest percentile with at least ten samples
    beyond it: (value, percentile, samples).  Below 21 samples no such
    percentile lies above the median, and the median stands in, reported as
    percentile 50."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def reference_loop() -> int:
    """Fixed pure-Python work of the kind the library does (tuples, dicts,
    lists, small ints).  Its wall time tracks the speed the shared host gives
    this process at the moment."""
    table = {}
    for i in range(REF_LOOP):
        table[i, i ^ 5] = [i * i % 7]
    return len(table)


def timed(api, calls: list[float], refs: list[float]):
    """``api`` with the wall time of every call appended to ``calls``, and
    that of a reference loop run just before the call to ``refs``."""

    def wrap(fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            reference_loop()
            refs.append(time.perf_counter() - start)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append(time.perf_counter() - start)

        return call

    return types.SimpleNamespace(**{name: wrap(fn) for name, fn in vars(api).items()})


def measure(setup: Setup, seconds: float, api=None) -> dict:
    """PASSES passes over the cycle, fewer if ``seconds`` run out first (at
    least one); end-to-end metrics.

    The shared host runs this process 1.5-1.8 times slower for minutes at a
    time, so wall times of one seed's runs differ by more than any bound
    could allow; a fixed loop of the benchmark's own slows by nearly the same
    factor as the library, and shares no code with it.  Times are therefore
    given in reference seconds (ref_s): a task's wall time is the sum of its
    library calls' wall times, divided by 1000 times the mean wall time of
    the reference loops run before the calls of the same pass.  On a quiet
    host one ref_s is about one second.  Each task reports its median pass.
    No pass starts after ``seconds``."""
    calls: list[float] = []
    refs: list[float] = []
    api = timed(api or make_api(setup.tl), calls, refs)
    wall: list[list[float]] = [[] for _ in setup.cycle]
    scaled: list[list[float]] = [[] for _ in setup.cycle]
    failures, failed_tasks = [], set()
    executed = passes = 0
    start = time.perf_counter()
    while passes < PASSES:
        refs.clear()
        for i, inst in enumerate(setup.cycle):
            gc.collect()  # untimed: no task pays for another's garbage
            calls.clear()
            error = run_task(setup.workload, api, setup.tl, inst)[1]
            wall[i].append(sum(calls))
            executed += 1
            if error:
                failures.append((f"n={inst.n} {inst.cls}", error))
                failed_tasks.add(i)
        ref_s = 1000 * statistics.fmean(refs)
        for i in range(len(setup.cycle)):
            scaled[i].append(wall[i][-1] / ref_s)
        passes += 1
        if time.perf_counter() - start > seconds:
            break
    times = [statistics.median(t) for t in scaled]
    wall_times = [statistics.median(t) for t in wall]
    verified = len(setup.cycle) - len(failed_tasks)
    if setup.warm_error:
        failures.append(("warm-up", setup.warm_error))
    attempted = executed + 1  # the warm-up task counts as attempted
    tail_s, tail_pct, samples = tail(times)
    return dict(
        attempted=attempted,
        failures=failures,
        passes=passes,
        wall_per_s=verified / sum(wall_times),
        wall_p50_s=statistics.median(wall_times),
        tail_pct=tail_pct,
        samples=samples,
        metrics=dict(
            tasks_per_s=verified / sum(times),
            task_p50_s=statistics.median(times),
            task_tail_s=tail_s,
            verified_share=(attempted - len(failures)) / attempted,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ),
    )


def traced(setup: Setup, name: str) -> dict:
    """Each task of the cycle untraced, then traced: per-layer metrics and
    per-n table.  Running the two back to back keeps slow spells of a shared
    host out of the overhead estimate."""
    cycle = setup.cycle
    failures = [("warm-up", setup.warm_error)] if setup.warm_error else []
    rec = spans.Recorder()
    plain, api = make_api(setup.tl), make_api(setup.tl, rec)
    task_n = {}
    untraced_s = traced_s = 0.0
    for task_id, inst in enumerate(cycle):
        rec.task = task_id
        task_n[task_id] = inst.n
        elapsed, error = run_task(setup.workload, plain, setup.tl, inst)
        untraced_s += elapsed
        with rec.patched():
            elapsed, traced_error = run_task(setup.workload, api, setup.tl, inst)
        traced_s += elapsed
        failures += [(f"n={inst.n} {inst.cls}", e) for e in (error, traced_error) if e]
    metrics, by_n = spans.summarise(rec, task_n)
    metrics["trace.tasks"] = (len(cycle), "count")
    metrics["trace.task_s"] = (traced_s, "s")
    metrics["trace.untraced_task_s"] = (untraced_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    OUT.mkdir(exist_ok=True)
    rec.write(OUT / f"spans-{name}-s{setup.seed}.jsonl")
    return dict(attempted=2 * len(cycle) + 1, failures=failures, metrics=metrics, by_n=by_n)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, measured inside it."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        check=True,
        capture_output=True,
        text=True,
    )
    return float(out.stdout.split()[-1])


def report(result: dict, units: dict) -> dict:
    """Print the failures and metrics, and return the result line."""
    for where, error in result["failures"]:
        print(f"FAILED {where}: {error}", file=sys.stderr)
    metrics = {}
    for name, value in result["metrics"].items():
        value, unit = value if isinstance(value, tuple) else (value, units[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name}\t{value:.6g}\t{unit}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }


def print_by_n(by_n: dict, title: str) -> None:
    print(f"# median self time per call, by n ({title})")
    for line in spans.by_n_table(by_n):
        print("#   " + line)


def run_one(args) -> dict:
    setup = Setup(args.workload, args.seed)
    if args.trace:
        result = traced(setup, args.workload)
        total = result["metrics"]["trace.task_s"][0]
        print(f"# {args.workload} seed {args.seed}: self time share of traced task time ({total:.3f} s)")
        for key, (value, _) in result["metrics"].items():
            if key.endswith(".self_s") and value:
                print(f"#   {key[:-7]:<26}{100 * value / total:6.1f} %")
        print_by_n(result["by_n"], args.workload)
        (OUT / f"by_n-{args.workload}-s{args.seed}.json").write_text(json.dumps(result["by_n"]))
    else:
        # Half of the fresh-process set-ups run before the passes and half
        # after: the median then draws on both ends of the run, not on one
        # moment of the shared host.
        samples = [setup.seconds] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        result = measure(setup, args.seconds)
        samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        result["metrics"]["setup_s"] = statistics.median(samples)
        print(
            f"# {args.workload} seed {args.seed}: {result['passes']} pass(es) over {result['samples']} tasks;"
            f" task_tail_s is p{result['tail_pct']:.1f} of {result['samples']} samples;"
            f" setup_s is the median of {len(samples)} set-ups;"
            f" in wall time, tasks_per_s {result['wall_per_s']:.4g} 1/s, task_p50_s {result['wall_p50_s']:.4g} s"
        )
    return report(result, END_TO_END_UNITS)


def run_all(args) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    by_n: dict = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"error: workload {name} exited with code {out.returncode} and no result") from None
        line["correct"] &= child["correct"]
        line["attempted"] += child["attempted"]
        line["failed"] += child["failed"]
        line["metrics"].update({f"{name}.{k}": v for k, v in child["metrics"].items()})
        if args.trace:
            for n, cells in json.loads((OUT / f"by_n-{name}-s{args.seed}.json").read_text()).items():
                by_n.setdefault(int(n), {}).update(cells)
    if args.trace:
        print_by_n(by_n, "all workloads")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(Setup(args.workload, args.seed).seconds)
        return 0
    line = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
