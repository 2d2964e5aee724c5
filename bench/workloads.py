"""The benchmark's workloads: inputs, one user pass each, and its checks.

Every workload is a closed loop with one client: a pass is a full user
pass (fit, forecast, analyze) and the next starts only after the
previous one completes. Inputs come from ``circdmd.synthgen`` with the
benchmark's seed: a mean plus 24 h, 168 h and faster harmonics with
noise sigma = 1.5 on a 5-minute grid. Each workload trains on the first
columns and holds out one week (2016 columns) as truth.

The program is called through module attributes (``circdmd.fit``,
``circdmd.cli.main``), never through names bound here, so the traced
run's wrappers see every call.

Reference values below were measured on the seed code. Their tolerances:

* Forecast RMSE must lie in a range. Its floor is the noise: no forecast
  of the held-out week beats sigma = 1.5 by more than sampling error, so
  a lower value means the truth leaked in. Its ceiling is the largest
  RMSE the seed code gave over a sweep of seeds, times ``RMSE_MARGIN``.
  Sweeps: seeds 0-23 for traffic-circ-sp, 0-119 for hankel-wide, 0-59
  for cli-bundle. fb-hankel's forecast is unstable from seed to seed
  (1.87 to 8.15 over 120 seeds, a heavy tail); that is how the seed code
  behaves, so its ceiling is set at 16 and only catches divergence.
* Periods are read from modes with a nonzero amplitude and must lie
  within ``PERIOD_RTOL`` of the target: 1 % for 24 h, 8 % for 168 h,
  which spans only one or two training weeks. Each workload checks the periods
  the seed code recovers on every seed of its sweep, so a check that
  fails marks a change in behaviour. 24 h is resolved to under 0.7 %
  everywhere but by fb-hankel, which loses the daily pair on some seeds.
  The 168 h period (amplitude 6) is resolved only by cli-bundle, whose
  delay is 24 h; the library workloads never place it within 8 % (tau =
  8 h or 4 h), except tls-hankel on 2 seeds in 120. Whether it was found
  is counted per pass as ``analysis.weekly_periods_found``, so a change
  that resolves it shows up there.
* Bundles store float64 with 17 significant digits, which round-trips
  exactly; the reload check allows ``4 * eps`` relative.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import circdmd
import circdmd.cli
from tracing import Patch

DT = 1.0 / 12.0
WEEK = 2016
NOISE = 1.5
RMSE_FLOOR = 0.98 * NOISE
RMSE_MARGIN = 1.25
WEEKLY = 168.0
PERIOD_RTOL = {24.0: 0.01, WEEKLY: 0.08}
RELOAD_RTOL = 4 * np.finfo(float).eps
MAX_LAG = 288

# "period:amplitude[:phase]" as taken by ``circdmd synth --components``.
LIBRARY_COMPONENTS = "inf:55;24:9:0.3;168:6:1.2;12:3;8:1.5"
CLI_COMPONENTS = "inf:55;24:9:0.3;168:6:1.2;12:0.3;6:0.2"


def parse_components(text):
    components = []
    for chunk in text.split(";"):
        parts = chunk.split(":")
        period = math.inf if parts[0] == "inf" else float(parts[0])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
        components.append(circdmd.Component(period, float(parts[1]), phase))
    return tuple(components)


class PassFailed(Exception):
    """An operation raised; the rest of the pass cannot run."""


@dataclass
class PassLog:
    """Timings, operations and checks of one pass."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    ops: list = field(default_factory=list)
    rmse: Optional[float] = None
    warnings: int = 0
    weekly_found: int = 0
    aborted: bool = False

    def run(self, metric, label, fn, *args):
        """Time one operation; returns (operation, result)."""
        op = {"label": label, "ok": True}
        self.ops.append(op)
        start = time.perf_counter()
        try:
            return op, fn(*args)
        except Exception as exc:
            op["ok"] = False
            traceback.print_exc()
            raise PassFailed(label) from exc
        finally:
            self.seconds[metric] += time.perf_counter() - start

    def check(self, op, ok, what):
        if not ok:
            op["ok"] = False
            print(f"check failed: {op['label']}: {what}", flush=True)

    @property
    def failed(self):
        return sum(not op["ok"] for op in self.ops)


def missing_periods(periods, amplitudes, targets):
    """Targets (hours) with no nonzero-amplitude period within tolerance."""
    kept = [p for p, a in zip(periods, amplitudes) if a != 0]
    return [
        t for t in targets
        if not any(abs(p - t) <= PERIOD_RTOL[t] * t for p in kept)
    ]


def peak_bytes(rows, cols, width, gram_rows=None):
    """Two float64 stacks, the Gram matrix and the complex reconstruct product."""
    gram = min(gram_rows or rows, cols)
    return 2 * rows * cols * 8 + gram * gram * 8 + rows * width * 16


def rmse_ok(rmse, worst):
    """Within [noise floor, worst seed-code RMSE * margin]; no check without a reference."""
    return worst is None or RMSE_FLOOR <= rmse <= worst * RMSE_MARGIN


@dataclass(frozen=True)
class Method:
    name: str
    tau: Optional[int]
    gamma: float = 0.0
    worst_rmse: Optional[float] = None
    periods: tuple = ()


@dataclass(frozen=True)
class LibraryWorkload:
    """fit -> predict -> analyze through the library, once per method."""

    name: str
    n: int
    t_train: int
    methods: tuple

    @property
    def ops_per_pass(self):
        return 3 * len(self.methods)

    def memory_estimate(self):
        peak = 0
        for m in self.methods:
            tau = m.tau or 1
            rows = self.n * tau
            cols = self.t_train if m.name.startswith("circ") else self.t_train - tau
            gram_rows = 2 * rows if m.name == "tls-hankel" else rows
            peak = max(peak, peak_bytes(rows, cols, cols + 1 + WEEK, gram_rows))
        return peak

    def setup(self, workdir, seed):
        spec = circdmd.SyntheticSpec(
            n=self.n,
            t=self.t_train + WEEK,
            delta_t=DT,
            components=parse_components(LIBRARY_COMPONENTS),
            noise_sigma=NOISE,
            seed=seed,
        )
        data = circdmd.generate(spec)
        circdmd.save_matrix(data, Path(workdir) / "input.csv")
        return circdmd.split(data, self.t_train)

    def run_pass(self, dataset, log):
        train, truth = dataset.train, dataset.test.values
        shape = (train.n_sensors, train.n_time)
        rmses = []
        for m in self.methods:
            config = circdmd.VariantConfig(method=m.name, tau=m.tau, gamma=m.gamma)
            _, spectrum = log.run("fit_s", f"{m.name} fit", circdmd.fit, train, config)
            forecast_op, full = log.run(
                "forecast_s", f"{m.name} forecast", circdmd.predict, spectrum, shape, WEEK
            )
            analyze_op, report = log.run(
                "analyze_s", f"{m.name} analyze", self._analyze, spectrum, train, full, truth
            )
            forecast = full[:, train.n_time:]
            rmse = float(np.sqrt(np.mean((truth - forecast) ** 2)))
            rmses.append(rmse)
            log.check(forecast_op, rmse_ok(rmse, m.worst_rmse),
                      f"forecast RMSE {rmse:.4f}, seed code at most {m.worst_rmse}")
            kept = spectrum.amplitudes[report.included]
            missing = missing_periods(report.periods, kept, m.periods)
            log.check(analyze_op, not missing, f"periods {missing} h not recovered")
            log.weekly_found += not missing_periods(report.periods, kept, (WEEKLY,))
        # The median over methods: fb-hankel's heavy-tailed RMSE would
        # otherwise set the run-to-run spread of hankel-wide.
        log.rmse = float(np.median(rmses))

    def _analyze(self, spectrum, train, full, truth):
        circdmd.classify_stability(spectrum.eigenvalues)
        report = circdmd.oscillation_periods(spectrum.eigenvalues, DT, spectrum.amplitudes)
        residuals = train.values - full[:, : train.n_time]
        max_lag = min(MAX_LAG, train.n_time - 1)
        for row in residuals:
            circdmd.residual_acf(row, max_lag)
        circdmd.mape_per_sensor(truth, full[:, train.n_time:])
        return report


@dataclass
class CliInputs:
    workdir: Path
    csv: Path
    truth: Optional[np.ndarray]


@dataclass(frozen=True)
class CliWorkload:
    """synth once, then fit a gamma path, forecast, reconstruct and analyze
    through ``circdmd.cli.main``, each pass in a fresh directory."""

    name: str
    n: int
    t_train: int
    tau: int
    rank: int
    gammas: tuple
    forecast_gamma: float
    worst_rmse: Optional[float] = None
    periods: tuple = ()
    ops_per_pass = 4

    def memory_estimate(self):
        return peak_bytes(self.n * self.tau, self.t_train, self.t_train + WEEK)

    def setup(self, workdir, seed):
        csv = Path(workdir) / "input.csv"
        code = _cli([
            "synth", "--out", str(csv), "--n", str(self.n),
            "--t", str(self.t_train + WEEK), "--dt", repr(DT),
            "--components", CLI_COMPONENTS, "--noise", str(NOISE), "--seed", str(seed),
        ])
        if code != 0:
            raise RuntimeError(f"circdmd synth exited with {code}")
        return CliInputs(Path(workdir), csv, None)

    def run_pass(self, inputs, log):
        saved = {}
        capture = Patch()
        save_bundle = circdmd.cli.save_bundle

        def capturing(outdir, spectrum, *args, **kwargs):
            saved[Path(outdir).name] = spectrum
            return save_bundle(outdir, spectrum, *args, **kwargs)

        capture.replace(save_bundle, capturing)
        try:
            with tempfile.TemporaryDirectory(dir=inputs.workdir) as tmp:
                self._pass(inputs, Path(tmp), saved, log)
        finally:
            capture.restore()

    def _pass(self, inputs, tmp, saved, log):
        bundle = tmp / "bundle"
        chosen = bundle / f"gamma_{self.forecast_gamma:g}"
        common = ["--input", str(inputs.csv), "--dt", repr(DT), "--split-index", str(self.t_train)]
        grid = ",".join(f"{g:g}" for g in self.gammas)
        steps = [
            ("fit_s", "cli fit", ["fit", *common, "--method", "circ-sp", "--tau", str(self.tau),
                                  "--rank", str(self.rank), "--gamma-grid", grid, "--out", str(bundle)]),
            ("forecast_s", "cli forecast", ["forecast", *common, "--bundle", str(chosen),
                                            "--out", str(tmp / "forecast")]),
            ("reconstruct_s", "cli reconstruct", ["reconstruct", *common, "--bundle", str(chosen),
                                                  "--out", str(tmp / "reconstruct")]),
            ("analyze_s", "cli analyze", ["analyze", *common, "--bundle", str(chosen),
                                          "--out", str(tmp / "analyze"),
                                          "--run", ",".join(circdmd.cli.ANALYSES)]),
        ]
        ops = {}
        for metric, label, argv in steps:
            op, code = log.run(metric, label, _cli, argv)
            log.check(op, code == 0, f"exit code {code}")
            ops[metric] = op

        fit_op = ops["fit_s"]
        for gamma in self.gammas:
            name = f"gamma_{gamma:g}"
            spectrum = saved.get(name)
            log.check(fit_op, spectrum is not None, f"{name} was not saved")
            if spectrum is not None:
                for field_name in ("eigenvalues", "amplitudes"):
                    stored = circdmd.cli._read_complex_matrix(bundle / name / f"{field_name}.csv").ravel()
                    expected = getattr(spectrum, field_name)
                    close = stored.shape == expected.shape and np.all(
                        np.abs(stored - expected) <= RELOAD_RTOL * np.abs(expected)
                    )
                    log.check(fit_op, close, f"{name}/{field_name} differs from the fit")
        nnz = np.loadtxt(bundle / "sparsity_path.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        log.check(fit_op, len(nnz) == len(self.gammas) and np.all(np.diff(nnz) <= 0),
                  f"sparsity path nnz {nnz.tolist()} is not nonincreasing")

        forecast_op = ops["forecast_s"]
        if inputs.truth is None:  # read once, outside every timed step
            inputs.truth = np.loadtxt(inputs.csv, delimiter=",")[:, self.t_train:]
        forecast = np.loadtxt(tmp / "forecast" / "forecast.csv", delimiter=",", ndmin=2)
        rmse = float(np.sqrt(np.mean((inputs.truth - forecast) ** 2)))
        reported = json.loads((tmp / "forecast" / "forecast_metrics.json").read_text())["rmse"]
        log.check(forecast_op, abs(reported - rmse) <= 1e-9 * rmse,
                  f"reported RMSE {reported} differs from recomputed {rmse}")
        log.check(forecast_op, rmse_ok(rmse, self.worst_rmse),
                  f"forecast RMSE {rmse:.4f}, seed code at most {self.worst_rmse}")
        log.rmse = rmse

        table = np.loadtxt(tmp / "analyze" / "periods.csv", delimiter=",", skiprows=1, ndmin=2)
        missing = missing_periods(table[:, 0], table[:, 2], self.periods)
        log.check(ops["analyze_s"], not missing, f"periods {missing} h not recovered")
        log.weekly_found += not missing_periods(table[:, 0], table[:, 2], (WEEKLY,))


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return circdmd.cli.main(argv)


TRAFFIC = LibraryWorkload(
    name="traffic-circ-sp",
    n=157,
    t_train=2 * WEEK,
    methods=(Method("circ-sp", tau=96, gamma=500.0, worst_rmse=1.5452, periods=(24.0,)),),
)

HANKEL_WIDE = LibraryWorkload(
    name="hankel-wide",
    n=20,
    t_train=2 * WEEK,
    methods=(
        Method("dmd", tau=None, worst_rmse=12.284),
        Method("hankel", tau=48, worst_rmse=2.3902, periods=(24.0,)),
        Method("fb-hankel", tau=48, worst_rmse=16.0),
        Method("tls-hankel", tau=48, worst_rmse=2.1259, periods=(24.0,)),
    ),
)

CLI_BUNDLE = CliWorkload(
    name="cli-bundle",
    n=40,
    t_train=WEEK,
    tau=288,
    rank=16,
    gammas=(0.0, 10.0, 100.0, 1000.0),
    forecast_gamma=100.0,
    worst_rmse=1.5135,
    periods=(24.0, 168.0),
)

WORKLOADS = {w.name: w for w in (TRAFFIC, HANKEL_WIDE, CLI_BUNDLE)}


def tiny(name):
    """The workload at a few-millisecond size, without reference values."""
    if name == "cli-bundle":
        return CliWorkload(name=name, n=3, t_train=96, tau=6, rank=4,
                           gammas=(0.0, 10.0), forecast_gamma=10.0)
    workload = WORKLOADS[name]
    methods = tuple(
        Method(m.name, tau=m.tau and 4, gamma=m.gamma) for m in workload.methods
    )
    return LibraryWorkload(name=name, n=4, t_train=96, methods=methods)
