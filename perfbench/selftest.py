"""Self-test of the benchmark: every workload at a tiny size, plus the
negative cases that show the checks are not vacuous.

    python3 perfbench/selftest.py

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from run import (
    BENCH,
    COUNTED_ROUNDS,
    E2E_UNITS,
    OUT,
    ROOT,
    SRC,
    canaries_rejected,
    cli_child_runner,
    counted,
    run_loop,
)

sys.path.insert(0, str(SRC))

from checker import CheckFailed, cycle_spec, expected_path_label  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, path_values  # noqa: E402

problems: list[str] = []


def case(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        problems.append(name)


def rejects(check, output) -> bool:
    try:
        check(output)
    except CheckFailed:
        return True
    return False


def main() -> int:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        for name, cls in WORKLOADS.items():
            workload = cls(0, work, ROOT, tiny=True)
            workload.load(workload.structure_files())
            if name == "cli":
                workload.runner = cli_child_runner(work / "child.out", [0])
            records, first = run_loop(workload, 0)
            failed = [f"{r.kind}: {r.why}" for r in records if not r.ok]
            case(f"{name}: one tiny round passes ({len(records)} operations)", not failed, "; ".join(failed[:3]))
            case(f"{name}: every tampered output is rejected", canaries_rejected(first))
            if name == "cli":
                op, out, _ = next(item for item in first if item[0].kind == "check")
                case("cli: a wrong exit code fails", rejects(op.check, {"exit": 5, "stdout": out["stdout"]}))
                workload.runner = workload.run_in_process
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_loop(workload, 0, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, {i: r.kind for i, r in enumerate(traced)})
            added = {"cli.import_numpy_ms", "cli.import_pastedlogic_ms", "trace.overhead_ratio"}
            case(f"{name}: the traced round passes and names every layer metric",
                 all(r.ok for r in traced) and set(metrics) | added == set(LAYER_METRICS))

        # A known defect must show: the float copy of the uniform pentagon
        # weight is decided on a point that is not exactly admissible.
        classify = WORKLOADS["classify"](0, work, ROOT, tiny=True)
        classify.load(classify.structure_files())
        spec = cycle_spec(5)
        op = classify.op("C5/float", spec, path_values(spec, 1.0), expected_path_label(5, Fraction(1)))
        case("classify: float r = 1.0 on the pentagon counts as failed", rejects(op.check, op.render(op.call())))

        # The counts in the result line depend on the seed alone: a run
        # that stops at once and one that goes on past the counted rounds
        # report the same attempted and failed.
        short, _ = run_loop(classify, 0, min_rounds=COUNTED_ROUNDS)
        longer, _ = run_loop(classify, 0, min_rounds=COUNTED_ROUNDS + 1)
        case(f"classify: counted rounds give the same counts {counted(short)}",
             counted(short) == counted(longer) and counted(short)[0] == len(short))

        # Without the library the benchmark must fail and print no result.
        bare = work / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "gluing", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        case("without src/ the run exits non-zero and prints no result",
             proc.returncode != 0 and '"correct"' not in proc.stdout)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    case("BENCHMARK.json lists the workloads run.py knows",
         [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    case("BENCHMARK.json end_to_end matches run.py",
         {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS)
    case("BENCHMARK.json per_layer matches tracer.py",
         {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
