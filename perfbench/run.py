#!/usr/bin/env python3
"""lorhol benchmark: times whole workloads from outside the package.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-partners, survey-warm, geodesic (see perfbench/README.md).
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload untraced and then traced, and prints
the per-layer metrics and the tracing overhead.  Every output is checked;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The code measured is the
checkout's own ``src/`` tree; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 3
STARTUP_PROBES = 3
TAIL_BEYOND = 10
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


@dataclass
class Record:
    name: str
    latency: float
    points: int
    failure: str | None
    cal: float  # reference-kernel seconds, sampled just before the op


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    cycles: int = 0
    wrong: list[str] = field(default_factory=list)
    title: str = "pass"
    # whether its operations go into the result's attempted/failed counts
    counted: bool = True

    @property
    def busy(self) -> float:
        return sum(r.latency for r in self.records)

    @property
    def ref_latencies(self) -> list[float]:
        """Latencies in reference seconds (see calibrate.py)."""
        return calibrate.to_reference([r.latency for r in self.records],
                                      [r.cal for r in self.records])

    @property
    def failures(self) -> list[Record]:
        return [r for r in self.records if r.failure is not None]


def child_env() -> dict:
    """Environment for every process the benchmark starts: the checkout's
    src/ first on the path, BLAS/OpenMP pinned to one thread, and no
    LORHOL_SEED (seeds are passed explicitly)."""
    env = {k: v for k, v in os.environ.items() if k != "LORHOL_SEED"}
    env.update(THREAD_ENV, PYTHONPATH=str(SRC))
    return env


def run_op(op, wrong: list[str]) -> Record:
    cal = calibrate.sample()
    start = perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # noqa: BLE001  a failed operation; go on
        return Record(op.name, perf_counter() - start, 0,
                      f"{type(exc).__name__}: {exc}", cal)
    latency = perf_counter() - start
    outcome = op.judge(out)
    if outcome.wrong:
        wrong.append(f"{op.name}: {outcome.wrong}")
    return Record(op.name, latency, outcome.points, outcome.failure, cal)


def measure(workload, seconds: float, whole_passes: bool = True) -> Pass:
    """Closed loop, one client, until at least ``seconds`` have elapsed:
    whole passes over the operation list, so every run measures the same
    mix, or (``whole_passes=False``) single operations.  The calibration
    kernel runs before each operation, outside its timed region."""
    p = Pass()
    start = perf_counter()
    while True:
        for op in workload.cycle_ops(p.cycles):
            p.records.append(run_op(op, p.wrong))
            if not whole_passes and perf_counter() - start >= seconds:
                p.cycles += 1
                return p
        p.cycles += 1
        if perf_counter() - start >= seconds:
            return p


def tail(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it (the maximum when the run has too few)."""
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], f"max of {len(s)} ok ops (fewer than {TAIL_BEYOND + 1})"
    k = len(s) - TAIL_BEYOND - 1
    return s[k], (f"p{100.0 * (k + 1) / len(s):.1f} of {len(s)} ok ops, "
                  f"{TAIL_BEYOND} beyond")


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(setups: list[float], setup_ref: list[float], p: Pass,
               rss: float):
    """End-to-end metrics, times in reference seconds (calibrate.py); the
    notes give the raw wall-clock values."""
    ok_raw = [r.latency for r in p.records if r.failure is None]
    if not ok_raw:
        raise RuntimeError("no operation succeeded")
    ref = p.ref_latencies
    ok = [t for t, r in zip(ref, p.records) if r.failure is None]
    points = sum(r.points for r in p.records)
    tail_s, tail_note = tail(ok)
    metrics = {
        "setup_s": (statistics.median(setup_ref), "s"),
        "ok_ops_per_s": (len(ok) / sum(ref), "1/s"),
        "op_p50_s": (statistics.median(ok), "s"),
        "op_tail_s": (tail_s, "s"),
        "points_per_s": (points / sum(ref), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {
        "setup_s": "raw median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ok_ops_per_s": f"raw {len(ok_raw) / p.busy:.4g}",
        "op_p50_s": f"raw {statistics.median(ok_raw):.4g}",
        "op_tail_s": f"raw {tail(ok_raw)[0]:.4g}; {tail_note}",
        "points_per_s": f"raw {points / p.busy:.4g}",
    }
    return metrics, notes


def _py(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), *args]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def child_setup(args) -> float:
    """Set-up time of an in-process workload, in a fresh interpreter."""
    cmd = _py("--workload", args.workload, "--seed", str(args.seed),
              "--setup-only", *(["--smoke"] if args.smoke else []))
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=150, check=True)
    return _last_json(proc.stdout)["setup_s"]


def timed_setup(workload) -> float:
    start = perf_counter()
    workload.setup()
    return perf_counter() - start


def check_imported_from_checkout() -> None:
    import lorhol
    if not Path(lorhol.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"lorhol imported from {lorhol.__file__}, "
                           f"not from {SRC}")


def plain_run(args, make):
    wl = make()
    # each set-up is scaled by the kernel samples just before and after it
    setups, setup_ref = [], []
    before = None
    for k in range(SETUP_REPEATS):
        if k == 0 and wl.in_process:
            # the measuring process sets up first: the calibration kernel
            # imports numpy, which belongs to the set-up being timed
            t = timed_setup(wl)
            check_imported_from_checkout()
        else:
            before = before or calibrate.sample()
            t = child_setup(args) if wl.in_process else timed_setup(wl)
        after = calibrate.sample()
        around = after if before is None else (before + after) / 2
        setups.append(t)
        setup_ref.append(t * calibrate.REFERENCE_S / around)
        before = after
    p = measure(wl, args.seconds)
    rss = peak_rss_mb(with_children=not wl.in_process)
    p.wrong += wl.check()
    metrics, notes = end_to_end(setups, setup_ref, p, rss)
    # known defects that fail for some seeds only: run after the timed
    # loop, checked and reported but neither timed nor counted
    defects = Pass(title="known defects (not timed, not counted)",
                   counted=False)
    for op in wl.defect_ops():
        defects.records.append(run_op(op, defects.wrong))
    return [p, defects] if defects.records else [p], metrics, notes


def startup_probe(env) -> float:
    """Wall time of `lorhol fixtures list`, the CLI's import floor."""
    times = []
    for _ in range(STARTUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "lorhol.cli", "fixtures",
                        "list", "--json"], env=env, cwd=ROOT,
                       capture_output=True, timeout=60, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def traced_run(args, make, work: Path):
    """Per-layer metrics.  The traced pass repeats the untraced run's loop
    with spans installed; a short untraced pass over the same first
    operations gives the tracing overhead."""
    import tracing

    wl = make()
    wl.setup()
    if wl.in_process:
        check_imported_from_checkout()
    untraced = measure(wl, args.seconds / 4.0, whole_passes=False)
    untraced.wrong += wl.check()
    # it stops mid-pass, so its failures would make the counts depend on
    # timing; the result counts the traced whole passes only
    untraced.title, untraced.counted = "untraced (not counted)", False
    if wl.in_process:
        out = work / "traced.json"
        cmd = _py("--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--traced-child", str(out),
                  *(["--smoke"] if args.smoke else []))
        subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=170,
                       check=True, stdout=subprocess.DEVNULL)
        data = json.loads(out.read_text())
        traced = Pass([Record(**r) for r in data["records"]], data["cycles"],
                      data["wrong"])
        layers = data["layers"]
    else:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        twl = make(trace_dir=trace_dir)
        twl.setup()
        traced = measure(twl, args.seconds)
        traced.wrong += twl.check()
        layers = tracing.merge(json.loads(f.read_text())["layers"]
                               for f in twl.stats_files if f.exists())
    metrics = tracing.layer_metrics(layers)
    metrics["cli.startup_s"] = (startup_probe(child_env()), "s")
    n = min(len(untraced.records), len(traced.records))
    base = sum(untraced.ref_latencies[:n])
    with_spans = sum(traced.ref_latencies[:n])
    metrics["trace.overhead_ratio"] = (with_spans / base - 1.0, "ratio")
    notes = {"trace.overhead_ratio":
             f"first {n} operations, reference seconds: traced "
             f"{with_spans:.3f} s, untraced {base:.3f} s"}
    return [untraced, traced], metrics, notes


def traced_child(args, make) -> None:
    """The traced half of a --trace 1 run of an in-process workload: a
    fresh interpreter, so every program is compiled under the tracer."""
    import tracing

    wl = make()
    tracer = tracing.Tracer()
    with tracer:
        wl.setup()
        p = measure(wl, args.seconds)
    p.wrong += wl.check()
    Path(args.traced_child).write_text(json.dumps({
        "layers": tracer.snapshot(), "cycles": p.cycles, "wrong": p.wrong,
        "records": [r.__dict__ for r in p.records]}))


def machine_info() -> dict:
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def report(args, passes: list[Pass], metrics: dict, notes: dict) -> bool:
    wrong = [w for p in passes for w in p.wrong]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for key, value in machine_info().items():
        print(f"machine.{key}: {value}")
    print(f"settings: src={SRC} "
          + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
          + " LORHOL_SEED=unset, --seed passed explicitly, pinned to CPU "
          + ",".join(map(str, sorted(os.sched_getaffinity(0)))))
    for p in passes:
        groups: dict[tuple[str, str], int] = {}
        for r in p.failures:
            groups[(r.name, r.failure)] = groups.get((r.name, r.failure), 0) + 1
        print(f"{p.title}: {len(p.records)} ops"
              + (f" in {p.cycles} passes" if p.cycles else "")
              + f", {len(p.failures)} failed, busy {p.busy:.3f} s, "
              f"{sum(p.ref_latencies):.3f} reference s; reference kernel "
              f"median {statistics.median(r.cal for r in p.records) * 1e3:.3f}"
              " ms")
        for (name, failure), count in sorted(groups.items()):
            print(f"  failed x{count}: {name}: {failure}")
        by_name: dict[str, list[float]] = {}
        for r in p.records:
            by_name.setdefault(r.name, []).append(r.latency)
        for name, lat in by_name.items():
            print(f"  op {name}: n={len(lat)} "
                  f"median={statistics.median(lat):.4f} s")
    for w in wrong:
        print(f"WRONG: {w}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    result = {
        "correct": not wrong,
        "attempted": sum(len(p.records) for p in passes if p.counted),
        "failed": sum(len(p.failures) for p in passes if p.counted),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return not wrong


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--traced-child", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorhol" / "__init__.py").is_file():
        print(f"error: {SRC}/lorhol not found; run from a lorhol checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("LORHOL_SEED", None)
    os.environ.update(THREAD_ENV)
    # one core for this process and every child it starts, so that the
    # calibration kernel runs on the core that runs the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    cls = workloads.WORKLOADS[args.workload]

    def make(**kw):
        return cls(args.seed, work, scale, child_env(), **kw)

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": timed_setup(make())}))
            return 0
        if args.traced_child:
            traced_child(args, make)
            return 0
        if args.trace:
            passes, metrics, notes = traced_run(args, make, work)
        else:
            passes, metrics, notes = plain_run(args, make)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if report(args, passes, metrics, notes) else 1


if __name__ == "__main__":
    sys.exit(main())
