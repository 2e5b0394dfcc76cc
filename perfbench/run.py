"""pastedlogic benchmark: one workload per process, closed loop, one
operation in flight.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced for half the time and
traced for the other half, and prints the per-layer metrics with the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the
run (environment, per-kind table, failures, output digest) goes to
``.perfbench_out/``.  See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checker import CheckFailed
from tracer import LAYER_METRICS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# ``attempted`` and ``failed`` count the operations of the first rounds
# only.  Every run finishes these rounds whatever the machine's speed, so
# the same code and seed always give the same counts; the operations of
# later rounds are checked too, and count in ``fail_frac`` and
# ``ops_per_s``.  Three rounds give each kind of ``classify`` float input
# every region of the path family once.
COUNTED_ROUNDS = 3
# End-to-end times are reported at a reference speed, fixed by two
# reference tasks and their times at that speed (about their medians on
# the 2-vCPU virtual machine of baseline.json): ``reference_kernel`` in process,
# for in-process operations; a child interpreter importing numpy and a
# fixed set of stdlib modules, for set-up and the cli workload, whose
# cost is process start and imports, numpy's above all.  A child that
# imports the stdlib alone tracked them poorly: from one hour to the
# next it moved by a quarter against the cli children.
REFERENCE_KERNEL_MS = 8.0
REFERENCE_CHILD_MS = 190.0
REFERENCE_CHILD_CODE = "import argparse, csv, dataclasses, decimal, fractions, json, pathlib, numpy"
KERNEL_EVERY_S = 0.2

# Set-up as a user pays it: a fresh interpreter imports the library and
# loads the workload's structures through its JSON loader.
SETUP_CODE = (
    "import sys, pathlib, pastedlogic\n"
    "for p in sys.argv[1:]:\n"
    "    pastedlogic.structure_from_json(pathlib.Path(p).read_text())\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - t)\n"
)

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Record:
    round: int
    kind: str
    seconds: float
    ok: bool
    why: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
        "note": "no CPU pinning or frequency control",
    }


# ------------------------------------------------------------------ loop


def reference_kernel() -> None:
    """Exact Gauss-Jordan elimination of a fixed 11 x 12 rational matrix:
    the kind of Fraction and big-integer work the library does, in the
    benchmark's own code, so no change to the library can alter it."""
    seed, n = 12345, 11
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n + 1):
            seed = (seed * 1103515245 + 12345) % 2**31
            row.append(Fraction(seed % 97 - 48, seed % 13 + 1))
        rows.append(row)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()  # the kernel makes no cycles; keep the library's heap out of it
    t0 = time.perf_counter()
    reference_kernel()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


class Calibration:
    """Times a reference task that no change to the library can alter,
    between operations, at most once per ``every_s``.  ``factor`` is the
    median over ``nominal_ms``: above 1 while the machine runs slower
    than the reference speed."""

    def __init__(self, task, nominal_ms: float, every_s: float):
        self.task, self.nominal_ms, self.every_s = task, nominal_ms, every_s
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        self.samples.append(self.task() * 1e3)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def factor(self) -> float:
        return statistics.median(self.samples) / self.nominal_ms


def run_loop(workload, seconds: float, tracer=None, calibration: Calibration | None = None, min_rounds: int = 1):
    """Run rounds until ``seconds`` of wall time have passed, always
    finishing the first ``min_rounds``.  Returns the records and round
    0's (op, output)."""
    records: list[Record] = []
    first: list = []
    start = time.perf_counter()
    k = 0
    while True:
        for op in workload.round(k):
            if k >= min_rounds and time.perf_counter() - start >= seconds:
                return records, first
            if tracer is not None:
                tracer.op = len(records)
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # the library failed this operation
                result, error = None, exc
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            rendered, why = None, None
            if error is not None:
                why = f"{type(error).__name__}: {error}"
            else:
                try:
                    rendered = op.render(result)
                    op.check(rendered)
                except Exception as exc:  # CheckFailed, or a malformed report
                    why = f"{type(exc).__name__}: {exc}"
            records.append(Record(k, op.kind, t1 - t0, why is None, why))
            if k == 0:
                first.append((op, rendered, why is None))
            if calibration is not None:
                calibration.maybe_sample()
        k += 1


def by_kind(records: list[Record]) -> dict[str, list[Record]]:
    groups: dict[str, list[Record]] = {}
    for r in records:
        groups.setdefault(r.kind, []).append(r)
    return groups


def weighted_quantile(pairs: list[tuple[float, float]], p: float) -> float:
    """Quantile of weighted samples, interpolating between the weight
    midpoints of neighbouring samples."""
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    points, cum = [], 0.0
    for value, w in pairs:
        points.append(((cum + w / 2) / total, value))
        cum += w
    if p <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if p <= p1:
            return v0 + (v1 - v0) * (p - p0) / (p1 - p0)
    return points[-1][1]


def summarize(records: list[Record], tail_percentile: float) -> dict:
    """End-to-end figures over one closed-loop phase.

    Each round holds every kind of operation once, but the last round may
    stop part-way; so an operation is weighted by 1 / (samples of its
    kind), which gives every kind the same share it has in a round."""
    groups = by_kind(records)
    kinds = len(groups)
    mean_s = sum(statistics.fmean(r.seconds for r in rs) for rs in groups.values())
    passed = sum(sum(r.ok for r in rs) / len(rs) for rs in groups.values())
    pairs = [(r.seconds * 1e3, 1.0 / len(rs)) for rs in groups.values() for r in rs]
    # The workload's percentile, or the next lower one that leaves at
    # least ten samples beyond it.
    for p in [tail_percentile] + [p for p in (90.0, 80.0, 75.0, 50.0) if p < tail_percentile]:
        value = weighted_quantile(pairs, p / 100)
        beyond = sum(v > value for v, _ in pairs)
        tail = (p, value, beyond)
        if beyond >= 10:
            break
    return {
        "ops_per_s": passed / mean_s,
        "attempted_per_s": kinds / mean_s,
        "latency_p50_ms": weighted_quantile(pairs, 0.5),
        "latency_tail_ms": tail[1],
        "tail_percentile": tail[0],
        "tail_samples_beyond": tail[2],
        "fail_frac": 1 - passed / kinds,
        "samples": len(records),
        "kinds": kinds,
        "rounds": len(records) / kinds,
    }


def counted(records: list[Record]) -> tuple[int, int]:
    """(attempted, failed) over the first ``COUNTED_ROUNDS`` rounds."""
    head = [r for r in records if r.round < COUNTED_ROUNDS]
    return len(head), sum(not r.ok for r in head)


def kind_table(records: list[Record]) -> dict:
    return {
        kind: {"n": len(rs), "mean_ms": statistics.fmean(r.seconds for r in rs) * 1e3,
               "passed": sum(r.ok for r in rs)}
        for kind, rs in by_kind(records).items()
    }


def digest(first: list) -> str:
    """sha256 of round 0's outputs, rendered by the library's own
    ``to_json_dict`` + ``dumps``: equal digests mean byte-identical
    rationals and certificates."""
    from pastedlogic.numeric import dumps

    h = hashlib.sha256()
    for op, rendered, _ in first:
        h.update(op.kind.encode() + b"\n")
        h.update(dumps(rendered).encode() if rendered is not None else b"<failed>\n")
    return h.hexdigest()


def canaries_rejected(first: list) -> bool:
    """Tamper with every output of round 0 that passed; the checks must
    reject each copy, or they prove nothing in this run."""
    tried = 0
    for op, rendered, ok in first:
        if not ok:
            continue
        tried += 1
        try:
            op.check(op.tamper(rendered))
        except CheckFailed:
            continue
        return False
    return tried > 0


# ------------------------------------------------------------- children


def spawn(argv: list[str], env: dict, out_path: Path) -> tuple[int, bytes, int]:
    """Run one child to completion: (exit code, stdout, peak RSS in KiB).

    posix_spawn plus wait4 gives the child's own peak RSS; stderr is
    discarded."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        argv[0],
        argv,
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
        ],
    )
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), out_path.read_bytes(), usage.ru_maxrss


def timed_child(argv: list[str], scratch: Path) -> tuple[float, bytes]:
    """(seconds from spawn to exit, stdout) of a child that must succeed."""
    t0 = time.perf_counter()
    code, stdout, _ = spawn(argv, child_env(), scratch)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"{argv[:3]} exited with {code}")
    return elapsed, stdout


def timed_children(argv: list[str], scratch: Path, between=None) -> list[tuple[float, bytes]]:
    """Run ``argv`` once to warm the file cache, then ``SETUP_REPEATS``
    times, calling ``between`` after each timed run."""
    timed_child(argv, scratch)
    out = []
    for _ in range(SETUP_REPEATS):
        out.append(timed_child(argv, scratch))
        if between is not None:
            between()
    return out


def child_calibration(scratch: Path) -> Calibration:
    argv = [sys.executable, "-c", REFERENCE_CHILD_CODE]
    timed_child(argv, scratch)
    return Calibration(lambda: timed_child(argv, scratch)[0], REFERENCE_CHILD_MS, 0.0)


def cli_child_runner(scratch: Path, peak_kib: list[int]):
    """Runner for the cli workload: one ``python -m pastedlogic.cli``
    child per call; ``peak_kib[0]`` keeps the largest child RSS."""

    def run(argv: list[str]) -> dict:
        code, stdout, rss = spawn([sys.executable, "-m", "pastedlogic.cli", *argv], child_env(), scratch)
        peak_kib[0] = max(peak_kib[0], rss)
        return {"exit": code, "stdout": stdout.decode()}

    return run


def setup_seconds(files: list[Path], scratch: Path, calibration: Calibration) -> float:
    """Median set-up time; a reference child runs after each one."""
    runs = timed_children([sys.executable, "-c", SETUP_CODE, *map(str, files)], scratch, calibration.sample)
    return statistics.median(t for t, _ in runs)


def import_ms(module: str, scratch: Path) -> float:
    runs = timed_children([sys.executable, "-c", IMPORT_CODE.format(module=module)], scratch)
    return statistics.median(float(stdout) for _, stdout in runs) * 1e3


# ------------------------------------------------------------------ main


def end_to_end(workload, files: list[Path], scratch: Path, seconds: float):
    """Wall-time figures, then the same at the reference speed: each time
    divided (and the rate multiplied) by the run's calibration factor."""
    child = child_calibration(scratch)
    setup = setup_seconds(files, scratch, child)
    setup_factor = child.factor()
    peak_kib = [0]
    if workload.name == "cli":
        workload.runner = cli_child_runner(scratch, peak_kib)
        calibration = child  # and a reference child after every operation
    else:
        calibration = Calibration(kernel_seconds, REFERENCE_KERNEL_MS, KERNEL_EVERY_S)
        for _ in range(5):
            calibration.sample()
    records, first = run_loop(workload, seconds, calibration=calibration, min_rounds=COUNTED_ROUNDS)
    stats = summarize(records, workload.tail_percentile)
    if workload.name != "cli":
        peak_kib[0] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    factor = calibration.factor()
    stats.update(
        wall_setup_s=setup,
        setup_speed_factor=setup_factor,
        speed_factor=factor,
        reference_ms=statistics.median(calibration.samples),
        calibration_samples=len(calibration.samples),
    )
    metrics = {
        "ops_per_s": stats["ops_per_s"] * factor,
        "latency_p50_ms": stats["latency_p50_ms"] / factor,
        "latency_tail_ms": stats["latency_tail_ms"] / factor,
        "setup_s": setup / setup_factor,
        "peak_rss_mb": peak_kib[0] / 1024,
    }
    return metrics, E2E_UNITS, stats, records, first, counted(records)


def per_layer(workload, scratch: Path, seconds: float, spans: Path):
    """Half the time untraced, half traced (both from round 0), then the
    per-layer figures and the overhead between the two halves."""
    records, first = run_loop(workload, seconds / 2, min_rounds=COUNTED_ROUNDS)
    untraced = summarize(records, workload.tail_percentile)
    tracer = Tracer()
    tracer.install()
    try:
        traced_records, _ = run_loop(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans)
    traced = summarize(traced_records, workload.tail_percentile)
    metrics = layer_metrics(tracer, {i: r.kind for i, r in enumerate(traced_records)})
    metrics["cli.import_numpy_ms"] = import_ms("numpy", scratch)
    metrics["cli.import_pastedlogic_ms"] = import_ms("pastedlogic", scratch)
    metrics["trace.overhead_ratio"] = untraced["attempted_per_s"] / traced["attempted_per_s"]
    return metrics, LAYER_METRICS, dict(traced, untraced=untraced), records + traced_records, first, counted(records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pastedlogic" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, ROOT)
        files = workload.structure_files()
        workload.load(files)
        scratch = work / "child.out"
        if args.trace == 0:
            metrics, units, summary, records, first, counts = end_to_end(workload, files, scratch, args.seconds)
        else:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, units, summary, records, first, counts = per_layer(workload, scratch, args.seconds, spans)

        failed = sum(not r.ok for r in records)
        attempted_counted, failed_counted = counts
        env["loadavg_end"] = os.getloadavg()
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "env": env,
            "summary": summary,
            "counted": {"rounds": COUNTED_ROUNDS, "attempted": attempted_counted, "failed": failed_counted},
            "digest": digest(first),
            "kinds": kind_table(records),
            "samples": [[r.kind, round(r.seconds * 1e3, 4), r.ok] for r in records],
            "failures": sorted({f"{r.kind}: {r.why}" for r in records if not r.ok})[:20],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n"
        )

        print(f"workload {args.workload}  seed {args.seed}  {summary['samples']} operations "
              f"({summary['kinds']} kinds, {summary['rounds']:.2f} rounds)")
        for name, value in metrics.items():
            print(f"  {name:32s} {value:14.6g} {units[name]}")
        if args.trace == 0:
            print(f"  {'latency_tail_ms is the':32s} p{summary['tail_percentile']:g} "
                  f"({summary['tail_samples_beyond']} samples beyond it)")
            print(f"  {'fail_frac':32s} {summary['fail_frac']:14.6g} ratio  ({failed} of {len(records)} failed; "
                  f"{failed_counted} of {attempted_counted} in rounds 0-{COUNTED_ROUNDS - 1})")
            print(f"  wall time before scaling; speed factor {summary['speed_factor']:.4f} "
                  f"(reference {summary['reference_ms']:.3f} ms, {summary['calibration_samples']} samples), "
                  f"set-up {summary['setup_speed_factor']:.4f}:")
            for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
                print(f"  {'wall.' + name:32s} {summary[name]:14.6g} {units[name]}")
            print(f"  {'wall.setup_s':32s} {summary['wall_setup_s']:14.6g} s")
        print(f"  digest sha256:{record['digest']}")
        print("env " + json.dumps(env))
        print(json.dumps({
            "correct": canaries_rejected(first),
            "attempted": attempted_counted,
            "failed": failed_counted,
            "metrics": record["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
