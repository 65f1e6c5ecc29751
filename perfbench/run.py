"""stdsh benchmark: one workload in one process, on a closed loop.

    python3 perfbench/run.py --workload train_hg --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. Each operation starts only after the previous one has finished,
and the run stops after the operation that ends nearest `--seconds`. With
`--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics, timed in reference seconds by a speed probe that runs on the same
core in between the program's own work (gauge.py); with `--trace 1` the
same operation runs untraced and then traced, in plain wall seconds,
and the JSON holds the per-layer metrics and the tracing overhead. The
lines before it name every metric with its unit and sample count, and the
machine the run was made on. A fuller record, and the spans of a traced
run, go to perfbench/out/.
"""

from __future__ import annotations

import os

# Before numpy loads: on these small matrices a second BLAS thread costs
# more than it saves and makes the timings swing with the host's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from gauge import REFERENCE_PROBE_S, SpeedGauge, probe_s, wall_s  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
# What a fresh interpreter runs before it can set up a workload.
IMPORT_PROGRAM = ("import sys; sys.path.insert(0, {src!r}); "
                  "import numpy, stdsh.experiment, stdsh.sim, stdsh.trainer")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train_hg", "eval_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Put the checkout's src/ first on the path and import stdsh from it."""
    src = ROOT / "src"
    if not (src / "stdsh" / "__init__.py").is_file():
        raise SystemExit(f"error: no stdsh sources under {src}; run from a "
                         "checkout that holds src/stdsh")
    sys.path.insert(0, str(src))
    import stdsh
    if Path(stdsh.__file__).resolve().parent != (src / "stdsh").resolve():
        raise SystemExit(f"error: imported stdsh from {stdsh.__file__}, "
                         f"not from {src}")


# ------------------------------------------------------------ machine facts

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
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


def _source_digest() -> str:
    """sha256 over src/ and configs/, so a non-git checkout is identified."""
    import hashlib
    h = hashlib.sha256()
    for sub in ("src", "configs"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file() and path.suffix in (".py", ".cfg"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


# --------------------------------------------------------------- measuring

def _median(values):
    return statistics.median(values) if values else float("nan")


def time_startups(reps: int) -> list[float]:
    """Reference seconds for a fresh interpreter to import the program.

    One untimed start comes first, to warm the file cache. This process
    and its children are held to one core, which three probes measure
    just before and just after each child.
    """
    code = IMPORT_PROGRAM.format(src=str(ROOT / "src"))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for rep in range(reps + 1):
            around = [probe_s() for _ in range(3)]
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            wall = time.perf_counter() - t0
            around += [probe_s() for _ in range(3)]
            if rep:
                times.append(wall * REFERENCE_PROBE_S / _median(around))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def time_setups(workload, work: Path, reps: int, clock=wall_s) -> list[float]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        workload.setup(work)
        times.append(clock(t0, time.perf_counter()))
    return times


def closed_loop(workload, seed: int, seconds: float, work: Path,
                clock=wall_s) -> list:
    """Whole operations back to back, ending as near `seconds` as they allow."""
    ops = []
    start = time.perf_counter()
    while True:
        out = work / f"op{len(ops)}"
        ops.append(workload.run_op(seed, len(ops), out, clock))
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(ops) > seconds:
            return ops


def summarize(workload_name: str, ops: list) -> dict:
    """Named figures as name -> (value, unit, samples).

    `op_s` is seconds per episode or cell over all operations, on the
    run's clock (reference seconds when a speed gauge ran): the mean over
    the run, which held steadier than a median of its few operations.
    `op_wall_s` is the same in plain wall seconds.
    """
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed for op in ops)
    timed = [op for op in ops if op.wall_s == op.wall_s]
    units = sum(op.units for op in timed)
    nan = float("nan")
    clock = sum(op.clock_s for op in timed) / units if units else nan
    wall = sum(op.wall_s for op in timed) / units if units else nan
    out = {"op_s": (clock, "s", units), "op_wall_s": (wall, "s", units)}
    if workload_name.startswith("train"):
        out["episode_s"] = out["op_s"]
    else:
        by = {}
        for op in ops:
            for controller, seconds in op.cells:
                by.setdefault(controller, []).append(seconds)
        for controller, values in by.items():
            out[f"eval_cell_s.{controller}"] = (_median(values), "s", len(values))
    out["failed_ratio"] = (failed / attempted if attempted else 1.0,
                           "ratio", attempted)
    return out


def run_benchmark(workload, seed: int, seconds: float, trace: int, work: Path,
                  reps: int = SETUP_REPS) -> dict:
    """Measure one workload; returns metrics, checks and details.

    Untraced, every time is in reference seconds (see gauge.py); traced,
    in plain wall seconds.
    """
    result = {}
    if not trace:
        startups = time_startups(reps)
        with SpeedGauge() as gauge:
            setups = time_setups(workload, work, reps, gauge.reference_s)
            workload.warm_up(work)
            ops = closed_loop(workload, seed, seconds, work, gauge.reference_s)
        result["probe"] = {"samples": len(gauge.durations),
                           "median_s": _median(gauge.durations),
                           "reference_s": REFERENCE_PROBE_S}
        named = summarize(workload.name, ops)
        result["startup_reps_s"] = startups
        named["setup_s"] = (_median(startups) + _median(setups), "s",
                            len(setups))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named["peak_rss_mb"] = (rss, "MB", 1)
        metrics = {k: named[k] for k in ("setup_s", "op_s", "peak_rss_mb")}
    else:
        setups = time_setups(workload, work, reps)
        t0 = time.perf_counter()
        plain = workload.run_op(seed, 0, work / "plain")
        plain_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("setup", new_op=True):
                workload.setup(work)
            t0 = time.perf_counter()
            with tracer.span("op", new_op=True):
                traced = workload.run_op(seed, 0, work / "traced")
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        ops = [plain, traced]
        named = summarize(workload.name, [plain])
        metrics = {k: (v, u, 1) for k, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s", 1)
        metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s,
                                           "ratio", 1)
        result["tracer"] = tracer
        result["untraced_op_s"] = plain_s
        result["traced_op_s"] = traced_s
        result["not_patched"] = tracer.missing
    result.update({
        "setup_reps_s": setups,
        "attempted": sum(op.units for op in ops),
        "failed": sum(op.failed for op in ops),
        "problems": [p for op in ops for p in op.problems],
        "ops": [{"wall_s": op.wall_s, "clock_s": op.clock_s,
                 "units": op.units, "failed": op.failed,
                 "outputs": op.outputs} for op in ops],
        "named": named,
        "metrics": metrics,
    })
    return result


# ----------------------------------------------------------------- output

def report_lines(args, facts: dict, result: dict) -> list[str]:
    lines = [f"# stdsh benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "# machine: " + " ".join(f"{k}={v}" for k, v in facts.items())]
    if not args.trace:
        probe = result["probe"]
        lines.append(f"# speed probe: {probe['samples']} samples, median "
                     f"{probe['median_s'] * 1e3:.4f} ms against "
                     f"{probe['reference_s'] * 1e3:g} ms; times in s are "
                     "reference seconds, op_wall_s is plain wall time")
    if args.trace and result["not_patched"]:
        lines.append("# not patched (metrics read 0): "
                     + ", ".join(result["not_patched"]))
    shown = {**result["named"], **result["metrics"]}
    for name, (value, unit, samples) in shown.items():
        lines.append(f"{name:<30} {value:>14.6g} {unit:<6} n={samples}")
    for problem in result["problems"]:
        lines.append(f"# FAILED: {problem}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import FULL, make
    refs = json.loads((HERE / "references.json").read_text())
    workload = make(args.workload, FULL, refs)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        result = run_benchmark(workload, args.seed, args.seconds, args.trace,
                               work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts = machine_facts()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result.pop("tracer").write(OUT / f"spans-{stem}.jsonl")
    record = {"args": vars(args), "machine": facts,
              **{k: v for k, v in result.items() if k != "named"},
              "named": {k: {"value": v, "unit": u, "samples": n}
                        for k, (v, u, n) in result["named"].items()}}
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in result["metrics"].items()}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    for line in report_lines(args, facts, result):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
