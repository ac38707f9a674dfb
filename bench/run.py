"""Benchmark entry point for acoustic-eit.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload control-map --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, every metric printed by name with its
unit, and the ROADMAP baseline table compared with the traced figures:

    python3 bench/run.py --all --seed 1 --seconds 20

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The human-readable
report goes to standard error. Results, spans and the workloads' files go to
``bench/out/``.

Each workload runs in a fresh interpreter (``workloads.py``), one after the
other, with BLAS and OpenMP pinned to one thread. ``setup_s`` is the median,
over several fresh interpreters, of the time from spawning one until
``import acoustic_eit`` has returned. A traced run spends half of
``--seconds`` untraced and half traced; the difference of their ``wall_s``
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from reference import normalise, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("control-map", "fit-batch", "oracle-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SPAWNS = 11
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}

PER_LAYER = {
    "experiments.run_ms": "ms",
    "experiments.self_ms": "ms",
    "experiments.noise_ms": "ms",
    "experiments.records": "count",
    "experiments.dip_rows_failed": "count",
    "experiments.export_us_per_row": "us",
    "experiments.csv_us_per_row": "us",
    "experiments.json_us_per_row": "us",
    "experiments.export_bytes": "bytes",
    "experiments.import_us_per_row": "us",
    "experiments.resolve_ms": "ms",
    "model.kernel_calls": "count",
    "model.kernel_points": "count",
    "model.kernel_ns_per_point": "ns",
    "model.scalar_calls": "count",
    "model.scalar_us_per_call": "us",
    "leastsq.fits": "count",
    "leastsq.iterations": "count",
    "leastsq.residual_evals": "count",
    "leastsq.jacobian_evals": "count",
    "leastsq.accept_ratio": "ratio",
    "leastsq.ms_per_fit": "ms",
    "leastsq.self_ms": "ms",
    "leastsq.unconverged": "count",
    "estimation.sample_build_ms": "ms",
    "estimation.dip_fits": "count",
    "estimation.transmission_fits": "count",
    "estimation.self_ms": "ms",
    "estimation.fit_failures": "count",
    "estimation.transmission_ms_per_fit": "ms",
    "estimation.transmission_iterations_per_fit": "count",
    "lindblad.points": "count",
    "lindblad.us_per_point": "us",
    "lindblad.self_ms": "ms",
    "lindblad.steady_state_failures": "count",
    "poles.classify_calls": "count",
    "poles.busy_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "setup.modules_loaded": "count",
    "setup.scipy_linalg_loaded": "count",
    "workload.items": "count",
    "workload.ops": "count",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# ROADMAP direction 1 baseline: (row, figure, unit, where the figure is measured)
BASELINE = (
    ("reflection_coefficient, vectorised", 70.0, "ns/pt", ("control-map", "model.kernel_ns_per_point")),
    ("reflection_coefficient, scalar", 4.2, "us/call", ("oracle-grid", "model.scalar_us_per_call")),
    ("master_equation_reflection", 410.0, "us/pt", ("oracle-grid", "master_equation_reflection_us")),
    ("weak_probe_deviation (645 ms / 1323 pts)", 645.0e3 / 1323, "us/pt", ("oracle-grid", "lindblad.us_per_point")),
    ("run_experiment linewidth-pipeline, noisy", 31.0, "ms", ("fit-batch", "run_experiment.linewidth-pipeline_ms")),
    ("run_experiment flux-sweep (noiseless in ROADMAP)", 5.0, "ms", ("fit-batch", "run_experiment.flux-sweep_ms")),
    ("fit_transmission, 401 complex points", 7.2, "ms", ("fit-batch", "estimation.transmission_ms_per_fit")),
    ("fit_transmission iterations", 5.0, "count", ("fit-batch", "estimation.transmission_iterations_per_fit")),
    ("control-sweep CSV export (43 ms / 4221 rows)", 43.0e3 / 4221, "us/row", ("control-map", "experiments.csv_us_per_row")),
    ("control-sweep JSON export (105 ms / 4221 rows)", 105.0e3 / 4221, "us/row", ("control-map", "experiments.json_us_per_row")),
    ("import acoustic_eit", 0.58, "s", (None, "setup_s")),
)
BASELINE_TOLERANCE = 0.20
TIME_UNITS = ("s", "ms", "us", "ns")


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


_PROBE = (
    "import sys, acoustic_eit; "
    "sys.stdout.write('%d %d %s\\n' % (len(sys.modules), 'scipy.linalg' in sys.modules, acoustic_eit.__file__)); "
    "sys.stdout.flush()"
)


def setup_probe() -> tuple[float, float, int, int]:
    """Seconds from spawning an interpreter until ``import acoustic_eit`` returned.

    Returns the measured and the normalised seconds, the number of modules
    loaded and whether ``scipy.linalg`` is among them.
    """
    before = reference("objects")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline().decode() if ready else ""
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        if proc.poll() is None and not line:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError("import acoustic_eit failed in a fresh interpreter")
    modules, scipy_linalg, path = line.split(maxsplit=2)
    if Path(path.strip()).resolve().parent != (SRC / "acoustic_eit").resolve():
        raise BenchError(f"acoustic_eit was imported from {path.strip()}, not from {SRC}")
    after = reference("objects")
    return elapsed, normalise(elapsed, 0.5 * (before + after), "objects"), int(modules), int(scipy_linalg)


def op_times(child: dict) -> list[list[float]]:
    """Normalised seconds of every operation, per repetition."""
    kind = child["reference"]
    return [[normalise(seconds, loop_s, kind) for seconds, loop_s in rep] for rep in child["ops"]]


def per_rep_median(child: dict, key: str, is_time) -> dict[str, float]:
    """Median over the repetitions of the traced figures, times normalised.

    A repetition's times are scaled by the ratio of its normalised to its
    measured operation time.
    """
    scales = [sum(norm) / sum(seconds for seconds, _ in rep) for norm, rep in zip(op_times(child), child["ops"])]
    per_rep = child[key]
    return {
        name: statistics.median(m[name] * (scale if is_time(name) else 1.0) for m, scale in zip(per_rep, scales))
        for name in per_rep[0]
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    out = OUT / "work" / f"{workload}.trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), "--out", str(out)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record, metrics included."""
    setup_probe()  # compiles bytecode and warms the file cache; not counted
    probes = [setup_probe() for _ in range(1 if (trace or tiny) else SETUP_SPAWNS)]
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        plain = run_child(workload, seed, seconds / 2.0, 0, tiny)
        traced = run_child(workload, seed, seconds / 2.0, 1, tiny)
        children = [plain, traced]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        values = per_rep_median(traced, "layers", lambda name: PER_LAYER[name] in TIME_UNITS)
        values.update({
            "setup.modules_loaded": probes[0][2],
            "setup.scipy_linalg_loaded": probes[0][3],
            "workload.items": traced["items"],
            "workload.ops": len(traced["ops"][0]),
            "error_rate": failed / attempted,
            "trace.overhead_s": (statistics.median(map(sum, op_times(traced)))
                                 - statistics.median(map(sum, op_times(plain)))),
        })
        units = PER_LAYER
        record["baseline"] = per_rep_median(traced, "baseline", lambda name: True)
        record["spans_file"] = traced["spans_file"]
    else:
        plain = run_child(workload, seed, seconds, 0, tiny)
        children = [plain]
        attempted, failed = plain["attempted"], plain["failed"]
        normalised = op_times(plain)
        # every repetition makes the same operations in the same order; an
        # operation's latency is its median over the repetitions
        latencies = 1e3 * np.median(np.asarray(normalised), axis=0)
        values = {
            "setup_s": statistics.median(p[1] for p in probes),
            "wall_s": statistics.median(map(sum, normalised)),
            "peak_rss_mb": plain["peak_rss_mb"],
            "op_p50_ms": float(np.percentile(latencies, 50)),
            "op_p90_ms": float(np.percentile(latencies, 90)),
        }
        measured = 1e3 * np.median(np.asarray(plain["ops"])[:, :, 0], axis=0)
        record["measured"] = {
            "setup_s": statistics.median(p[0] for p in probes),
            "wall_s": statistics.median(sum(seconds for seconds, _ in rep) for rep in plain["ops"]),
            "op_p50_ms": float(np.percentile(measured, 50)),
            "op_p90_ms": float(np.percentile(measured, 90)),
        }
        units = END_TO_END
        record["samples"] = {"setup_spawns": len(probes), "reps": plain["reps"], "ops": len(latencies),
                             "ops_beyond_p90": int(np.sum(latencies > values["op_p90_ms"]))}
        record["items"] = plain["items"]
        record["error_rate"] = failed / attempted
    record["facts"] = plain["facts"]
    record["checks"] = [dict(c, name=f"{'traced' if child['trace'] else 'untraced'}/{c['name']}")
                        for child in children for c in child["checks"]]
    record["fingerprint"] = plain["fingerprint"]
    record["correct"] = all(c["ok"] for c in record["checks"])
    record["attempted"], record["failed"] = attempted, failed
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return record


def describe(record: dict) -> str:
    lines = [f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}) =="]
    facts = record["facts"]
    lines.append("machine: {cores} cores ({cores_usable} usable), Python {python}, numpy {numpy}, scipy {scipy}, "
                 "BLAS {blas} threads {blas_threads}".format(**facts))
    if "samples" in record:
        s = record["samples"]
        lines.append(f"samples: {s['setup_spawns']} setup spawns, {s['reps']} repetitions of {s['ops']} operations "
                     f"({s['ops_beyond_p90']} beyond p90); items per repetition {record['items']}; "
                     f"error_rate {record['error_rate']:.4g}")
    measured = record.get("measured", {})
    for name, metric in record["metrics"].items():
        raw = f"  (measured {measured[name]:.6g})" if name in measured else ""
        lines.append(f"  {name:46s} {metric['value']:>16.6g} {metric['unit']}{raw}")
    for check in record["checks"]:
        lines.append(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} - {check['detail']}")
    lines.append(f"  outputs: {record['fingerprint']}")
    return "\n".join(lines)


def baseline_table(records: list[dict]) -> list[dict]:
    """ROADMAP direction 1 baseline rows against this run's figures."""
    figures: dict[tuple, float] = {}
    setups = []
    for record in records:
        for name, metric in record["metrics"].items():
            figures[(record["workload"], name)] = metric["value"]
        for name, value in record.get("baseline", {}).items():
            figures[(record["workload"], name)] = value
        if "setup_s" in record["metrics"]:
            setups.append(record["metrics"]["setup_s"]["value"])
    if setups:
        figures[(None, "setup_s")] = statistics.median(setups)
    rows = []
    for row, figure, unit, key in BASELINE:
        measured = figures.get(key)
        off = None if measured is None else measured / figure - 1.0
        rows.append({"row": row, "roadmap": figure, "measured": measured, "unit": unit,
                     "source": f"{key[0] or 'all'}:{key[1]}",
                     "beyond_20pct": off is not None and abs(off) > BASELINE_TOLERANCE})
    return rows


def run_all(seed: int, seconds: float, tiny: bool) -> int:
    records = [run_workload(w, seed, seconds, trace, tiny) for w in WORKLOADS for trace in (0, 1)]
    for record in records:
        print(describe(record), file=sys.stderr)
    table = baseline_table(records)
    print("== ROADMAP baseline (traced figures, normalised, include the tracer's own cost) ==", file=sys.stderr)
    for row in table:
        measured = "n/a" if row["measured"] is None else f"{row['measured']:.4g}"
        flag = "  <-- differs by more than 20%" if row["beyond_20pct"] else ""
        print(f"  {row['row']:50s} roadmap {row['roadmap']:<9.4g} now {measured:<9} {row['unit']}{flag}",
              file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results.json").write_text(json.dumps({"runs": records, "baseline": table}, indent=1) + "\n",
                                      encoding="utf-8")
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}/{name}": m for r in records for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="acoustic-eit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    if not (SRC / "acoustic_eit" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.tiny)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                                  encoding="utf-8")
    print(describe(record), file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
