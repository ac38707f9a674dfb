"""The benchmark's workloads, each run in a fresh interpreter by ``run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --out PATH [--tiny]

The inputs are made from ``--seed`` before the package is used; the package
only sees the generated configs and arrays. One client runs a closed loop:
each operation starts when the previous one returns. The whole workload is
repeated until the next repetition would pass ``--seconds`` (at least once),
with the same inputs every time, so counts repeat exactly and times can be
reported as medians. The outputs of the last repetition are checked after
the loop, outside the timed region, by code that does not call the package.

Workloads (``run.py`` reports them by these names):

- ``control-map``: about 10^5 points of the reflection map with 1% complex
  noise, through ``acoustic_eit.cli.main`` into CSV and then JSON, and the
  CSV read back with ``import_csv``. Per-point records, noise and per-cell
  export dominate; there are no fits and no oracle.
- ``fit-batch``: 40 noisy linewidth pipelines and 20 noisy flux sweeps, each
  sweep followed by three complex transmission fits (460 fits). The fit
  engine and the estimators dominate; there is no export and no oracle.
- ``oracle-grid``: the master-equation oracle against the closed form over
  100 random physical atoms, 30 drive points each. The per-point
  Liouvillian solve dominates.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from reference import reference

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "out" / "work"

TWO_PI = 2.0 * math.pi
MHZ = TWO_PI * 1.0e6
# the reflection device's upper coherence rate, gamma20 / 2pi
GAMMA20_HZ = 4.94e6
ORACLE_TOLERANCE = 1e-3


class Client:
    """The closed-loop client: runs operations one after the other.

    Each operation is timed, and the machine's speed is sampled with the
    reference (``reference.py``) right before and right after it and, for
    an operation longer than ``SAMPLE_INTERVAL_S``, every
    ``SAMPLE_INTERVAL_S`` during it from a timer signal; the time spent in
    those samples is taken out of the operation's time. An operation is
    recorded as (seconds, mean reference loop seconds of its samples).
    """

    SAMPLE_INTERVAL_S = 0.1

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ops: list[tuple[float, float]] = []
        self._last = reference(self.kind)
        self._samples: list[float] = []
        self._sampling_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(reference(self.kind))
        self._sampling_s += time.perf_counter() - t0

    def op(self, fn, *args, **kwargs):
        self._samples, self._sampling_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_INTERVAL_S, self.SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            after = reference(self.kind)
            samples = [self._last, after, *self._samples]
            self.ops.append((elapsed - self._sampling_s, sum(samples) / len(samples)))
            self._last = after


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _child_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1, np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


# ---------------------------------------------------------------------------
# control-map
# ---------------------------------------------------------------------------


class ControlMap:
    """Reflection map through the CLI, exported as CSV and JSON, CSV read back."""

    SIGMA_REL = 0.01
    REFERENCE = "objects"
    COLUMNS = ["control_power_dbm", "control_frequency_hz", "re", "im", "abs", "phase", "annotation"]

    def __init__(self, seed: int, tiny: bool, lib) -> None:
        rng = np.random.default_rng(seed)
        start = round(float(rng.uniform(-62.0, -58.0)), 3)
        self.powers, self.freqs = (5, 101) if tiny else (41, 2001)
        self.overlay = {
            "power_grid": {"start": start, "stop": start + 20.0, "count": self.powers},
            "control_frequency_grid": {"start": 2.10e9, "stop": 2.20e9, "count": self.freqs},
            "noise": {"sigma_rel": self.SIGMA_REL, "seed": _child_seeds(seed, 1)[0], "kind": "complex"},
        }
        self.dir = WORK / "control-map"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "overlay.json"
        self.config.write_text(json.dumps(self.overlay), encoding="utf-8")
        self.csv, self.json = self.dir / "map.csv", self.dir / "map.json"
        self.lib = lib
        self.items = self.powers * self.freqs

    def _simulate(self, path: Path, fmt: str) -> int:
        return self.lib.cli.main(["simulate", "control-sweep", "--profile", "paper", "--config", str(self.config),
                                  "--out", str(path), "--format", fmt])

    def rep(self, client: Client):
        failed = 0
        for path, fmt in ((self.csv, "csv"), (self.json, "json")):
            failed += client.op(self._simulate, path, fmt) != 0
        columns, rows = client.op(self.lib.experiments.import_csv, self.csv)
        return failed, (columns, rows)

    def fingerprint(self, output) -> dict:
        return {"csv_sha256": _file_sha256(self.csv), "json_sha256": _file_sha256(self.json)}

    def check(self, output) -> list[tuple[str, bool, str]]:
        imported_columns, imported_rows = output
        with open(self.csv, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            csv_rows = list(reader)
        with open(self.json, encoding="utf-8") as handle:
            envelope = json.load(handle)
        n = self.items
        checks = [
            ("csv-shape", header == self.COLUMNS and len(csv_rows) == n and all(len(r) == 7 for r in csv_rows),
             f"{len(csv_rows)} rows x {len(header)} columns"),
            ("json-shape", envelope["columns"] == self.COLUMNS and len(envelope["rows"]) == n,
             f"{len(envelope['rows'])} rows"),
            ("import-shape", list(imported_columns) == self.COLUMNS and len(imported_rows) == n,
             f"{len(imported_rows)} rows"),
        ]
        if not all(ok for _, ok, _ in checks):
            return checks
        numeric = self.COLUMNS[:6]
        from_csv = np.array([[float(c) for c in r[:6]] for r in csv_rows])
        from_json = np.array([[row[c] for c in numeric] for row in envelope["rows"]], dtype=float)
        from_import = np.array([[row[c] for c in numeric] for row in imported_rows], dtype=float)
        checks.append(("finite", bool(np.all(np.isfinite(from_csv))), "every numeric cell of the CSV"))
        checks.append(("csv-json-import-agree",
                       bool(np.array_equal(from_csv, from_json) and np.array_equal(from_csv, from_import)),
                       "CSV, JSON and import_csv hold the same numbers"))
        echo = envelope["config_echo"]
        checks.append(("config-echo",
                       echo["power_grid"] == self.overlay["power_grid"]
                       and echo["control_frequency_grid"] == self.overlay["control_frequency_grid"]
                       and echo["noise"] == self.overlay["noise"],
                       "the export echoes the generated grids and noise"))
        rms, sigma = self._noise_rms(from_csv, echo)
        checks.append(("noise-rms", abs(rms / sigma - 1.0) <= 0.10,
                       f"rms(exported - closed form) = {rms:.4e}, noise sigma = {sigma:.4e}"))
        return checks

    def _noise_rms(self, table: np.ndarray, echo: dict) -> tuple[float, float]:
        """Per-quadrature RMS of (exported - closed form) and the configured sigma.

        The closed form is recomputed here from the echoed device parameters:
        r = -G10 / (2(g10 - i Dp) + Oc^2 / (2(g20 - i(Dp + Dc)))).
        """
        atom, cal = echo["atom"], echo["calibration"]
        big_gamma10 = TWO_PI * atom["decay_hz"]
        gamma10 = 0.5 * big_gamma10 + TWO_PI * atom["dephasing1_hz"]
        gamma20 = 0.5 * TWO_PI * atom["upper_decay_hz"] + TWO_PI * atom["dephasing2_hz"]
        omega21 = TWO_PI * (atom["frequency_hz"] - atom["anharmonicity_hz"])
        watts = lambda dbm: 10.0 ** (dbm / 10.0) * 1e-3  # noqa: E731
        k = (TWO_PI * cal["anchor_rabi_hz"]) ** 2 / watts(cal["anchor_power_dbm"])
        omega_c = np.sqrt(k * watts(table[:, 0]))
        delta_p = TWO_PI * echo["probe_detuning_hz"]
        delta_c = TWO_PI * table[:, 1] - omega21
        closed = -big_gamma10 / (2.0 * (gamma10 - 1j * delta_p)
                                 + omega_c**2 / (2.0 * (gamma20 - 1j * (delta_p + delta_c))))
        sigma = echo["noise"]["sigma_rel"] * float(np.max(np.abs(closed)))
        residual = np.concatenate([table[:, 2] - closed.real, table[:, 3] - closed.imag])
        return float(np.sqrt(np.mean(residual**2))), sigma


# ---------------------------------------------------------------------------
# fit-batch
# ---------------------------------------------------------------------------


class FitBatch:
    """Noisy linewidth pipelines, then noisy flux sweeps with transmission fits."""

    PIPELINE_SIGMA = 0.0095
    FLUX_SIGMA = 0.01
    REFERENCE = "vectors"

    def __init__(self, seed: int, tiny: bool, lib) -> None:
        import dataclasses

        ex = lib.experiments
        pipelines, sweeps = (2, 1) if tiny else (40, 20)
        seeds = _child_seeds(seed, pipelines + sweeps)
        base = ex.paper_profile("linewidth-pipeline")
        flux = ex.paper_profile("flux-sweep")
        self.pipelines = [
            dataclasses.replace(base, noise=ex.NoiseParams(sigma_rel=self.PIPELINE_SIGMA, seed=s))
            for s in seeds[:pipelines]
        ]
        self.sweeps = [
            dataclasses.replace(flux, noise=ex.NoiseParams(sigma_rel=self.FLUX_SIGMA, seed=s))
            for s in seeds[pipelines:]
        ]
        atom = flux.atom.build()
        self.gamma10, self.big_gamma10 = atom.gamma10, atom.Gamma10
        self.lib = lib
        self.items = pipelines * base.power_grid.count + sweeps * len(flux.control_rabi_hz)

    def _fit_curve(self, records):
        x = TWO_PI * np.array([r.axes[1] for r in records])
        values = np.array([r.value for r in records])
        samples = self.lib.estimation.samples_from_arrays(x, values)
        return self.lib.estimation.fit_transmission(samples, gamma10=self.gamma10, Gamma10=self.big_gamma10)

    def rep(self, client: Client):
        run_experiment = self.lib.experiments.run_experiment
        failed = 0
        lines, fits = [], []
        for config in self.pipelines:
            try:
                result = client.op(run_experiment, config)
            except self.lib.errors.ConvergenceError:
                failed += 1
                lines.append(None)
                continue
            failed += any(row["status"] != "ok" for row in result.table)
            lines.append(result.summary["line_fit"])
        for config in self.sweeps:
            result = client.op(run_experiment, config)
            curves: dict[float, list] = {}
            for record in result.records:
                curves.setdefault(record.axes[0], []).append(record)
            for records in curves.values():
                try:
                    fits.append(client.op(self._fit_curve, records))
                except self.lib.errors.ConvergenceError:
                    failed += 1
                    fits.append(None)
        return failed, (lines, fits)

    def fingerprint(self, output) -> dict:
        lines, fits = output
        digest = hashlib.sha256()
        for line in lines:
            digest.update(repr(None if line is None else (line["gamma20_hz"], line["gamma20_sigma_hz"])).encode())
        for fit in fits:
            digest.update(repr(None if fit is None else fit.values.tolist()).encode())
        return {"fits_sha256": digest.hexdigest()}

    def check(self, output) -> list[tuple[str, bool, str]]:
        lines, fits = output
        hits = sum(1 for line in lines
                   if line is not None and abs(line["gamma20_hz"] - GAMMA20_HZ) <= 3.0 * line["gamma20_sigma_hz"])
        good_fits = sum(1 for fit in fits
                        if fit is not None and fit.converged
                        and bool(np.all(np.isfinite(fit.stderr)) and np.all(fit.stderr > 0.0)))
        return [
            ("gamma20-within-3-sigma", hits >= 0.9 * len(lines),
             f"{hits}/{len(lines)} pipelines within 3 sigma of {GAMMA20_HZ / 1e6} MHz (need 90%)"),
            ("transmission-fits", good_fits == len(fits),
             f"{good_fits}/{len(fits)} fits converged with positive standard errors"),
        ]


# ---------------------------------------------------------------------------
# oracle-grid
# ---------------------------------------------------------------------------


class OracleGrid:
    """Master-equation steady state against the closed form on random atoms."""

    GRID = (5, 3, 2)  # probe detunings, control detunings, control amplitudes per atom
    REFERENCE = "dense"

    def __init__(self, seed: int, tiny: bool, lib) -> None:
        rng = np.random.default_rng(seed)
        atoms = 3 if tiny else 100
        self.cases = []
        for _ in range(atoms):
            atom = lib.model.ThreeLevelAtom(
                omega10=TWO_PI * rng.uniform(2.0e9, 2.5e9),
                anharmonicity=TWO_PI * rng.uniform(80e6, 200e6),
                Gamma10=rng.uniform(5.0, 40.0) * MHZ,
                Gamma21=rng.uniform(0.2, 5.0) * MHZ,
                gphi1=rng.uniform(0.5, 20.0) * MHZ,
                gphi2=rng.uniform(0.5, 10.0) * MHZ,
            )
            n_p, n_c, n_o = self.GRID
            self.cases.append((
                atom,
                rng.uniform(-50.0, 50.0, n_p) * MHZ,
                rng.uniform(-50.0, 50.0, n_c) * MHZ,
                rng.uniform(0.0, 40.0, n_o) * MHZ,
            ))
        self.lib = lib
        self.items = atoms * math.prod(self.GRID)

    def rep(self, client: Client):
        lindblad = self.lib.lindblad
        failed = 0
        reports = []
        for atom, delta_p, delta_c, omega_c in self.cases:
            try:
                reports.append(client.op(lindblad.weak_probe_deviation, atom, delta_p, delta_c, omega_c))
            except self.lib.errors.SteadyStateError:
                failed += 1
                reports.append(None)
        return failed, reports

    def fingerprint(self, output) -> dict:
        return {"reports_sha256": hashlib.sha256(repr([tuple(r) if r else None for r in output]).encode()).hexdigest()}

    def check(self, output) -> list[tuple[str, bool, str]]:
        done = [r for r in output if r is not None]
        worst = max((r.max_rel for r in done), default=math.inf)
        points = sum(r.points for r in done)
        return [
            ("oracle-agrees", len(done) == len(output) and worst <= ORACLE_TOLERANCE,
             f"worst max_rel {worst:.3e} over {len(done)} atoms (bound {ORACLE_TOLERANCE:g})"),
            ("oracle-points", points == self.items, f"{points} points"),
        ]


WORKLOADS = {"control-map": ControlMap, "fit-batch": FitBatch, "oracle-grid": OracleGrid}


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


class _Library:
    """The package modules, looked up at call time so traced wrappers are used."""

    def __init__(self) -> None:
        import acoustic_eit
        import acoustic_eit.cli
        import acoustic_eit.errors
        import acoustic_eit.estimation
        import acoustic_eit.experiments
        import acoustic_eit.lindblad
        import acoustic_eit.model

        if Path(acoustic_eit.__file__).resolve().parent != (SRC / "acoustic_eit").resolve():
            raise SystemExit(f"acoustic_eit was imported from {acoustic_eit.__file__}, not from {SRC}")
        self.cli = acoustic_eit.cli
        self.errors = acoustic_eit.errors
        self.estimation = acoustic_eit.estimation
        self.experiments = acoustic_eit.experiments
        self.lindblad = acoustic_eit.lindblad
        self.model = acoustic_eit.model


def machine_facts(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="path of the result JSON")
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    lib = _Library()
    workload = WORKLOADS[args.workload](args.seed, args.tiny, lib)
    tracer = None
    if args.trace:
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    walls: list[float] = []
    rep_ops: list[list[tuple[float, float]]] = []
    rep_spans: list[tuple[int, int]] = []
    fingerprints: list[dict] = []
    start = time.perf_counter()
    while True:
        output = None  # the previous repetition's outputs do not count towards peak RSS
        gc.collect()
        if tracer is not None:
            tracer.run = len(walls)
            first = len(tracer.spans)
        client = Client(workload.REFERENCE)
        t0 = time.perf_counter()
        rep_failed, output = workload.rep(client)
        walls.append(time.perf_counter() - t0)
        rep_ops.append(client.ops)
        if tracer is not None:
            rep_spans.append((first, len(tracer.spans)))
        fingerprints.append(workload.fingerprint(output))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.check(output)
    checks.append(("repeatable", all(f == fingerprints[0] for f in fingerprints),
                   f"{len(fingerprints)} repetitions gave the same outputs"))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "facts": machine_facts(args.seed),
        "reps": len(walls),
        "elapsed_s": walls,  # per repetition, reference runs included
        "reference": workload.REFERENCE,
        "ops": rep_ops,
        "items": workload.items,
        # every repetition makes the same operations with the same outcomes:
        # count one repetition's, so the counts do not depend on the speed
        "attempted": len(rep_ops[-1]) + len(checks),
        "failed": rep_failed + sum(1 for _, ok, _ in checks if not ok),
        "peak_rss_mb": peak_rss_mb,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "fingerprint": fingerprints[-1],
    }
    if tracer is not None:
        from tracer import baseline_figures, layer_metrics

        result["layers"] = [layer_metrics(tracer.spans[a:b]) for a, b in rep_spans]
        result["baseline"] = [baseline_figures(tracer.spans[a:b]) for a, b in rep_spans]
        spans_path = BENCH / "out" / f"{args.workload}.spans.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "reps": len(walls),
                                  "clock": "perf_counter_ns", "fields": "id parent layer name start_ns end_ns run"})
        result["spans_file"] = str(spans_path.relative_to(BENCH.parent))
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
