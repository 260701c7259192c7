"""End-to-end benchmark of the density-biased sampling workflow.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--scale X] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json

The first form runs every workload named in ``BENCHMARK.json``, each
followed by one traced run, prints every metric with its unit and exits
non-zero if any output check failed. ``--out`` appends the run to a JSON
file (creating it), and the traced runs' spans go to ``FILE.trace.json``.

The second form runs one workload. Its last line of output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

``compare`` reads two ``--out`` files, pairs their runs in order and
judges every (workload, end-to-end metric) pair; see :func:`judge`.

Inputs are generated from ``--seed`` into ``benchmarks/e2e/.work/`` and
deleted at exit. Every set-up and every workload run happens in a
subprocess of this process, one at a time, with the environment from
:func:`child_env`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_DIR = HERE / ".work"

#: Set-ups measured per workload, each in a fresh process; ``setup_s``
#: is their median.
SETUPS = 3

#: A single-workload invocation must end within this many seconds.
DEADLINE_S = 170.0

#: Approximation-quality numbers recorded beside the end-to-end metrics.
#: They must not drop, but they vary with the seed's dataset by more
#: than any bound ``BENCHMARK.json`` allows, so only ``compare`` judges
#: them.
QUALITY = ("clusters_found", "outlier_recall")


# -- running -----------------------------------------------------------------


def child_env(workload) -> dict:
    """The environment of a workload subprocess.

    The shape knobs are set explicitly and the backend override is
    removed, so settings in the caller's environment cannot leak in;
    BLAS threads are pinned to one so ``n_jobs`` is the only
    parallelism.
    """
    env = dict(os.environ)
    env.pop("REPRO_PARALLEL_BACKEND", None)
    env.update(
        REPRO_N_JOBS=str(workload.n_jobs),
        REPRO_SHARDS=str(workload.shards),
        REPRO_DENSITY_BACKEND="kde",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        ),
    )
    return env


def _spawn(mode: str, job: dict, workload, deadline: float) -> dict:
    """Run ``run.py _child MODE JOB`` and return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "_child", mode, json.dumps(job)],
        env=child_env(workload),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"the {mode} subprocess of {job['workload']} exited with "
            f"code {proc.returncode}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, args, trace: bool, directory: Path) -> dict:
    """Generate one workload's input, set up and measure it, summarise."""
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[name]
    job = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "files": workloads.write_inputs(workload, args.seed, args.scale, directory),
    }
    setups = [
        _spawn("setup", job, workload, deadline)["setup_s"] for _ in range(SETUPS - 1)
    ]
    raw = _spawn("measure", job, workload, deadline)
    setups.append(raw["setup_s"])
    return summarize(raw, setups)


def summarize(raw: dict, setups: list[float]) -> dict:
    """One workload's record: metrics by name with units, checks, quality."""
    record = {
        "correct": raw["failed"] == 0 and bool(raw["walls"]),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "rows": raw.get("rows"),
        "samples": {"wall_s": raw["walls"], "setup_s": setups},
        "quality": raw.get("quality", {}),
        "end_to_end": {},
        "per_layer": {},
    }
    if raw["walls"]:
        wall = statistics.median(raw["walls"])
        record["end_to_end"] = _with_units(
            "end_to_end",
            {
                "wall_s": wall,
                "rows_per_s": raw["rows"] / wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": raw["peak_rss_mb"],
                "data_passes": statistics.median_low(raw["passes"]),
            },
        )
    if "per_layer" in raw:
        record["per_layer"] = _with_units("per_layer", raw["per_layer"])
        record["slowest_layer"] = raw["slowest_layer"]
        record["spans"] = raw["spans"]
    return record


def _with_units(kind: str, values: dict) -> dict:
    """Attach units from ``BENCHMARK.json``, which must name every metric."""
    names = [metric["name"] for metric in SPEC[kind]]
    if set(names) != set(values):
        raise RuntimeError(
            f"{kind} metrics computed {sorted(values)} but BENCHMARK.json "
            f"lists {sorted(names)}"
        )
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[kind]
    }


# -- reporting -----------------------------------------------------------------


def _out(line: str = "") -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def print_record(name: str, record: dict) -> None:
    """Print one workload's metrics, one ``metric NAME = VALUE UNIT`` a line."""
    samples = record["samples"]
    _out(
        f"== {name}: {record['rows']} rows, {len(samples['wall_s'])} timed runs, "
        f"{record['failed']} of {record['attempted']} runs failed"
    )
    notes = {
        "wall_s": _spread_note(samples["wall_s"], "runs"),
        "setup_s": _spread_note(samples["setup_s"], "set-ups"),
    }
    for kind in ("end_to_end", "per_layer"):
        for metric, entry in record[kind].items():
            note = notes.get(metric, "")
            _out(f"  metric {metric} = {entry['value']:.6g} {entry['unit']}{note}")
    for metric, value in record["quality"].items():
        _out(f"  quality {metric} = {value:g}")
    if "slowest_layer" in record:
        _out(f"  slowest layer: {record['slowest_layer']}")
    for error in record["errors"]:
        _out(f"  FAILED: {error.strip()}")


def _spread_note(values: list[float], what: str) -> str:
    if not values:
        return ""
    return (
        f"  (median of {len(values)} {what}; "
        f"min {min(values):.6g}, max {max(values):.6g})"
    )


def summary(records: dict) -> dict:
    """Slowest layer per workload, and sharded against serial wall time."""
    out = {
        "slowest_layer": {
            name: record["slowest_layer"]
            for name, record in records.items()
            if "slowest_layer" in record
        }
    }
    try:
        serial = records["fig5-kde"]["end_to_end"]["wall_s"]["value"]
        sharded = records["fig5-kde-sharded"]["end_to_end"]["wall_s"]["value"]
    except KeyError:
        return out
    out["sharded_over_serial_wall"] = sharded / serial
    return out


def _append_run(path: Path, run: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].append(run)
    path.write_text(json.dumps(data, indent=1) + "\n")


# -- comparing -----------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q3 = _quartiles(values)
    return (q3 - q1) / (abs(statistics.median(values)) or 1.0)


def _wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs, in run order, where the change reads strictly better."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one (workload, metric) pair of run lists.

    Runs pair up in order. ``improved`` needs at least ten pairs, the
    change winning at least nine tenths of them (ties count for
    neither), and a difference of medians larger than the parent's
    interquartile range. Otherwise ``regressed`` if the change's median
    is worse than the parent's by more than ``bound`` (a share of the
    parent's median), ``unresolved`` if either side's spread exceeds
    the bound and not every change run beats every parent run, else
    ``unchanged``.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - old) > 0: worse
    pairs = min(len(parent), len(change))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    if (
        pairs >= 10
        and _wins(parent, change, better) >= 0.9 * pairs
        and sign * (mc - mp) < 0
        and abs(mc - mp) > q3 - q1
    ):
        return "improved"
    if sign * (mc - mp) / (abs(mp) or 1.0) > bound:
        return "regressed"
    every_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max(_spread(parent), _spread(change)) > bound and not every_better:
        return "unresolved"
    return "unchanged"


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    values = []
    for run in runs:
        record = run["workloads"].get(workload)
        if record is None:
            continue
        if metric in record["end_to_end"]:
            values.append(record["end_to_end"][metric]["value"])
        elif metric in record["quality"]:
            values.append(record["quality"][metric])
    return values


def compare(parent_path: str, change_path: str) -> int:
    """Print a verdict per (workload, metric); exit 1 if any regressed."""
    parent = json.loads(Path(parent_path).read_text())["runs"]
    change = json.loads(Path(change_path).read_text())["runs"]
    judged = [(m["name"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]
    judged += [(name, "higher", 0.0) for name in QUALITY]
    _out(
        f"{'workload':<20} {'metric':<16} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'wins':>7}  verdict"
    )
    verdicts = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name, better, bound in judged:
            p, c = _values(parent, workload, name), _values(change, workload, name)
            if not p or not c:
                continue
            verdict = judge(p, c, better, bound)
            verdicts.append(verdict)
            _out(
                f"{workload:<20} {name:<16} {_describe(p):>34} {_describe(c):>34} "
                f"{_wins(p, c, better):>3}/{min(len(p), len(c)):<3}  {verdict}"
            )
    return 1 if "regressed" in verdicts else 0


def _describe(values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


# -- entry points --------------------------------------------------------------


def _child(mode: str, payload: str) -> int:
    start = time.perf_counter()
    import workloads  # imports repro: timed as part of set-up

    import_s = time.perf_counter() - start
    job = json.loads(payload)
    if mode == "setup":
        result = {"setup_s": workloads.setup_seconds(job, import_s)}
    else:
        result = workloads.measure(job, import_s)
    sys.stdout.write(json.dumps(result, default=lambda o: o.item()) + "\n")
    return 0


def _parse(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiplies every input size"
    )
    parser.add_argument("--out", type=Path, help="append the run to this JSON file")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    if argv[:1] == ["_child"]:
        return _child(argv[1], argv[2])
    args = _parse(argv)
    package = ROOT / "src" / "repro"
    if not package.is_dir():
        sys.stderr.write(f"no program to measure: {package} is missing\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    # Every workload runs traced when all run; one workload, as asked.
    trace = bool(args.trace) or args.workload is None
    directory = WORK_DIR / f"run-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args, trace, directory)
            print_record(name, records[name])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()
    correct = all(record["correct"] for record in records.values())
    spans = {name: record.pop("spans", []) for name, record in records.items()}
    run = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "workloads": records,
        "summary": summary(records),
    }
    if args.out:
        _append_run(args.out, run)
        Path(f"{args.out}.trace.json").write_text(json.dumps(spans) + "\n")
    if args.workload:
        record = records[args.workload]
        kind = "per_layer" if args.trace else "end_to_end"
        _out(
            json.dumps(
                {
                    "correct": record["correct"],
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record[kind],
                }
            )
        )
    else:
        for name, layer in run["summary"]["slowest_layer"].items():
            _out(f"slowest layer of {name}: {layer}")
        if "sharded_over_serial_wall" in run["summary"]:
            ratio = run["summary"]["sharded_over_serial_wall"]
            _out(f"fig5-kde-sharded wall_s / fig5-kde wall_s = {ratio:.4f}")
        _out("all output checks passed" if correct else "OUTPUT CHECKS FAILED")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
