"""Batch command-line interface.

Subcommands: synth, fit, reconstruct, forecast, analyze, metrics.
Options may come from a flat key=value config file (``--config``);
explicit flags override file values. All outputs are UTF-8 CSV/JSON;
decomposition bundles store complex arrays as paired re/im columns so
they stay portable across platforms and languages.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    classify_stability,
    mae_rmse,
    mape_per_sensor,
    oscillation_periods,
    predictability_groups,
    reshape_mode,
    residual_acf,
    residual_lag_correlation,
)
from .datamodel import load_matrix, save_matrix, split
from .errors import ConfigError, DataError, ShapeError, ToolkitError, UsageError
from .spectral import RANK_AUTO, DynamicSpectrum, SpectrumMeta
from .synthgen import Component, SyntheticSpec, generate
from .variants import VariantConfig, fit, fit_gamma_path, predict

ANALYSES = ("stability", "periods", "modes", "acf", "residual-corr", "per-sensor-mape")


# ----------------------------------------------------------------------
# config file handling
# ----------------------------------------------------------------------

def read_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def write_config_file(path, values: dict) -> None:
    lines = [f"{key} = {value}" for key, value in values.items() if value is not None]
    Path(path).write_text("\n".join(lines) + "\n")


def _merge_config(args: argparse.Namespace, argv) -> argparse.Namespace:
    """Fill argparse defaults from the config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    file_values = read_config_file(args.config)
    for key, raw in file_values.items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if _was_supplied(key, argv):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
        elif isinstance(current, int) and not isinstance(current, bool):
            setattr(args, key, int(raw))
        elif isinstance(current, float):
            setattr(args, key, float(raw))
        elif current is None:
            setattr(args, key, _infer_scalar(raw))
        else:
            setattr(args, key, raw)
    return args


def _infer_scalar(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _was_supplied(key: str, argv) -> bool:
    flag = "--" + key.replace("_", "-")
    return any(arg == flag or arg.startswith(flag + "=") for arg in argv)


# ----------------------------------------------------------------------
# bundle IO
# ----------------------------------------------------------------------

def _write_complex_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for k in range(matrix.shape[1]):
            header += [f"c{k}_re", f"c{k}_im"]
        writer.writerow(header)
        for row in matrix:
            cells = []
            for value in row:
                cells += [f"{value.real:.17g}", f"{value.imag:.17g}"]
            writer.writerow(cells)


def _read_complex_matrix(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return data[:, 0::2] + 1j * data[:, 1::2]


def input_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def save_bundle(outdir, spectrum: DynamicSpectrum, digest: str, split_index=None):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = spectrum.meta
    manifest = {
        "method": meta.method,
        "tau": meta.tau,
        "rank": meta.rank,
        "gamma": meta.gamma,
        "mode_flavor": meta.mode_flavor,
        "n_sensors": meta.n_sensors,
        "n_time": meta.n_time,
        "delta_t": meta.delta_t,
        "split_index": split_index,
        "input_digest": digest,
        "software_version": __version__,
    }
    if spectrum.sparsity is not None:
        manifest["nonzero_count"] = spectrum.sparsity.nonzero_count
        manifest["admm_converged"] = bool(spectrum.sparsity.converged)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _write_complex_matrix(outdir / "eigenvalues.csv", spectrum.eigenvalues[None, :])
    _write_complex_matrix(outdir / "amplitudes.csv", spectrum.amplitudes[None, :])
    _write_complex_matrix(outdir / "modes.csv", spectrum.modes)


def _read_bundle_matrix(path, shape) -> np.ndarray:
    """One complex array of a bundle, checked against the shape its manifest implies."""
    try:
        matrix = _read_complex_matrix(path)
    except FileNotFoundError:
        raise DataError(f"{path}: missing from the bundle") from None
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: not a paired re/im CSV matrix ({exc})") from None
    if matrix.shape != shape:
        raise ShapeError(f"{path}: shape {matrix.shape}, manifest implies {shape}")
    return matrix


def load_bundle(bundle_dir) -> DynamicSpectrum:
    """Read a bundle written by :func:`save_bundle`.

    Raises DataError naming a file that is missing or unreadable, and
    ShapeError naming an array whose shape disagrees with the manifest.
    """
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{manifest_path}: missing from the bundle")
    manifest = json.loads(manifest_path.read_text())
    meta = SpectrumMeta(
        method=manifest["method"],
        tau=manifest["tau"],
        rank=manifest["rank"],
        gamma=manifest["gamma"],
        mode_flavor=manifest["mode_flavor"],
        n_sensors=manifest["n_sensors"],
        n_time=manifest["n_time"],
        delta_t=manifest["delta_t"],
    )
    rank = meta.rank
    return DynamicSpectrum(
        eigenvalues=_read_bundle_matrix(bundle_dir / "eigenvalues.csv", (1, rank)).ravel(),
        modes=_read_bundle_matrix(
            bundle_dir / "modes.csv", (meta.n_sensors * meta.tau, rank)
        ),
        amplitudes=_read_bundle_matrix(bundle_dir / "amplitudes.csv", (1, rank)).ravel(),
        meta=meta,
    )


def load_manifest(bundle_dir) -> dict:
    return json.loads((Path(bundle_dir) / "manifest.json").read_text())


def _write_real_matrix(path, matrix: np.ndarray, sensor_ids=None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, row in enumerate(np.atleast_2d(matrix)):
            cells = [f"{v:.17g}" for v in row]
            if sensor_ids is not None:
                cells = [sensor_ids[i]] + cells
            writer.writerow(cells)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _require(args, *names):
    for name in names:
        if not getattr(args, name, None):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} is required (flag or config file)")


def _parse_components(text: str):
    """Parse "period:amplitude[:phase];..." with "inf" for a constant term."""
    components = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise UsageError(f"component {chunk!r} is not period:amplitude[:phase]")
        period = math.inf if parts[0].strip().lower() == "inf" else float(parts[0])
        amplitude = float(parts[1])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
        components.append(Component(period=period, amplitude=amplitude, phase=phase))
    if not components:
        raise UsageError("no components given")
    return tuple(components)


def cmd_synth(args) -> int:
    _require(args, "out")
    spec = SyntheticSpec(
        n=args.n,
        t=args.t,
        delta_t=args.dt,
        components=_parse_components(args.components),
        noise_sigma=args.noise,
        outlier_rate=args.outlier_rate,
        outlier_magnitude=args.outlier_magnitude,
        seed=args.seed,
    )
    matrix = generate(spec)
    save_matrix(matrix, args.out, layout=args.layout)
    print(f"wrote {matrix.n_sensors} x {matrix.n_time} matrix to {args.out}")
    return 0


def _load_train(args):
    data = load_matrix(args.input, layout=args.layout, delta_t=args.dt)
    if args.split_index:
        dataset = split(data, args.split_index)
        return dataset.train, dataset
    return data, None


def cmd_fit(args) -> int:
    _require(args, "input", "out")
    train, _ = _load_train(args)
    digest = input_digest(args.input)
    outdir = Path(args.out)
    manifest_path = outdir / "manifest.json"
    if manifest_path.exists() and not args.force:
        previous = json.loads(manifest_path.read_text())
        if previous.get("input_digest") != digest:
            print(
                f"error: {outdir} was fit from different input "
                "(digest mismatch); use --force to overwrite",
                file=sys.stderr,
            )
            return 1

    rank = RANK_AUTO if args.rank in (None, "", "auto") else int(args.rank)
    config = VariantConfig(
        method=args.method,
        tau=args.tau,
        rank=rank,
        gamma=args.gamma,
        admm_rho=args.admm_rho,
        admm_max_iter=args.admm_max_iter,
    )
    if args.gamma_grid:
        gammas = [float(g) for g in args.gamma_grid.split(",")]
        results = fit_gamma_path(train, config, gammas)
        rows = []
        for gamma, spectrum, solution in results:
            subdir = outdir / f"gamma_{gamma:g}"
            save_bundle(subdir, spectrum, digest, split_index=args.split_index)
            rows.append((gamma, solution.nonzero_count, solution.loss))
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "sparsity_path.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "nonzero_count", "loss"])
            writer.writerows(rows)
        print(f"wrote {len(rows)} bundles under {outdir}")
        return 0

    spectrum = fit(train, config)
    save_bundle(outdir, spectrum, digest, split_index=args.split_index)
    print(
        f"fit method={spectrum.meta.method} tau={spectrum.meta.tau} "
        f"rank={spectrum.meta.rank} -> {outdir}"
    )
    return 0


def cmd_reconstruct(args) -> int:
    _require(args, "input", "out")
    spectrum = load_bundle(args.bundle)
    train, _ = _load_train(args)
    estimate = predict(spectrum, (train.n_sensors, train.n_time), 0)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_real_matrix(outdir / "reconstruction.csv", estimate)
    mae, rmse = mae_rmse(train.values, estimate)
    (outdir / "reconstruction_metrics.json").write_text(
        json.dumps({"mae": mae, "rmse": rmse}, indent=2) + "\n"
    )
    print(f"reconstruction MAE {mae:.4f} RMSE {rmse:.4f} -> {outdir}")
    return 0


def cmd_forecast(args) -> int:
    _require(args, "input", "out")
    spectrum = load_bundle(args.bundle)
    train, dataset = _load_train(args)
    horizon = args.horizon
    if horizon is None and dataset is not None:
        horizon = dataset.test.n_time
    if not horizon or horizon < 1:
        raise UsageError("horizon must be >= 1 (give --horizon or --split-index)")

    full = predict(spectrum, (train.n_sensors, train.n_time), horizon)
    forecast = full[:, train.n_time :]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_real_matrix(outdir / "forecast.csv", forecast)

    metrics = {"horizon": int(horizon)}
    if dataset is not None:
        truth = dataset.test.values
        overlap = min(truth.shape[1], forecast.shape[1])
        if overlap < max(truth.shape[1], forecast.shape[1]):
            print(
                f"warning: horizon {forecast.shape[1]} vs test {truth.shape[1]}; "
                f"metrics on first {overlap} columns",
                file=sys.stderr,
            )
        mae, rmse = mae_rmse(truth[:, :overlap], forecast[:, :overlap])
        metrics["mae"] = mae
        metrics["rmse"] = rmse
        columns_per_day = int(round(24.0 / train.delta_t))
        boundary = min(args.split_days * columns_per_day, overlap)
        if 0 < boundary:
            mae_a, rmse_a = mae_rmse(truth[:, :boundary], forecast[:, :boundary])
            metrics["first_window"] = {
                "days": args.split_days, "mae": mae_a, "rmse": rmse_a,
            }
        if boundary < overlap:
            mae_b, rmse_b = mae_rmse(
                truth[:, boundary:overlap], forecast[:, boundary:overlap]
            )
            metrics["last_window"] = {
                "days": (overlap - boundary) / columns_per_day,
                "mae": mae_b,
                "rmse": rmse_b,
            }
    (outdir / "forecast_metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"forecast of {horizon} columns -> {outdir}")
    return 0


def cmd_analyze(args) -> int:
    _require(args, "out")
    spectrum = load_bundle(args.bundle)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    meta = spectrum.meta
    requested = []
    if args.stability:
        requested.append("stability")
    if args.periods:
        requested.append("periods")
    if args.modes:
        requested.append("modes")
    if args.acf:
        requested.append("acf")
    if args.residual_corr:
        requested.append("residual-corr")
    if args.per_sensor_mape:
        requested.append("per-sensor-mape")
    if args.run:
        for name in args.run.split(","):
            name = name.strip()
            if name not in ANALYSES:
                raise UsageError(f"unknown analysis {name!r}; choose from {ANALYSES}")
            if name not in requested:
                requested.append(name)
    if not requested:
        raise UsageError("no analyses requested")

    needs_residuals = {"acf", "residual-corr", "per-sensor-mape"}
    residuals = truth = None
    if needs_residuals & set(requested):
        if not args.input:
            raise UsageError("residual analyses need --input (and --split-index if used)")
        train, _ = _load_train(args)
        truth = train.values
        estimate = predict(spectrum, (train.n_sensors, train.n_time), 0)
        residuals = truth - estimate

    failures = []
    for name in requested:
        try:
            _run_analysis(name, spectrum, meta, residuals, truth, args, outdir)
        except ToolkitError as exc:
            failures.append((name, str(exc)))
    if failures:
        for name, message in failures:
            print(f"analysis {name} failed: {message}", file=sys.stderr)
        return 1
    print(f"wrote {len(requested)} analyses -> {outdir}")
    return 0


def _run_analysis(name, spectrum, meta, residuals, truth, args, outdir):
    order = spectrum.dominance_order()
    if name == "stability":
        report = classify_stability(spectrum.eigenvalues, tol=args.stability_tol)
        period_report = oscillation_periods(
            spectrum.eigenvalues, meta.delta_t, spectrum.amplitudes
        )
        periods_full = np.full(spectrum.eigenvalues.shape, math.inf)
        periods_full[period_report.included] = period_report.periods
        with open(outdir / "stability.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "modulus", "steady", "period_hours", "amp_abs"])
            for i in order:
                ev = spectrum.eigenvalues[i]
                writer.writerow([
                    f"{ev.real:.17g}", f"{ev.imag:.17g}", f"{abs(ev):.17g}",
                    int(report.steady_mask[i]),
                    f"{periods_full[i]:.8g}",
                    f"{abs(spectrum.amplitudes[i]):.17g}",
                ])
        active = np.abs(spectrum.amplitudes) > 0
        active_report = classify_stability(
            spectrum.eigenvalues[active], tol=args.stability_tol
        )
        (outdir / "stability.json").write_text(
            json.dumps(
                {
                    "deviation_sum": report.deviation_sum,
                    "deviation_sum_active": active_report.deviation_sum,
                    "steady_count": int(report.steady_mask.sum()),
                    "tolerance": report.tolerance,
                },
                indent=2,
            )
            + "\n"
        )
    elif name == "periods":
        report = oscillation_periods(
            spectrum.eigenvalues, meta.delta_t, spectrum.amplitudes
        )
        weight = np.abs(spectrum.amplitudes) * np.linalg.norm(spectrum.modes, axis=0)
        rows = sorted(
            zip(
                report.periods,
                report.amplitudes_real,
                np.abs(spectrum.amplitudes[report.included]),
                weight[report.included],
            ),
            key=lambda r: -r[3],
        )
        with open(outdir / "periods.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["period_hours", "amp_real", "amp_abs", "dominance"])
            for period, amp_real, amp_abs, dom in rows:
                if amp_abs == 0.0:
                    continue  # sparsified away; kept in the bundle, not reported
                writer.writerow(
                    [f"{period:.8g}", f"{amp_real:.8g}", f"{amp_abs:.8g}", f"{dom:.8g}"]
                )
    elif name == "modes":
        indices = (
            [int(i) for i in args.mode_indices.split(",")]
            if args.mode_indices
            else list(order[: min(5, order.size)])
        )
        for idx in indices:
            shaped = reshape_mode(
                spectrum.modes[:, idx],
                spectrum.amplitudes[idx],
                meta.n_sensors,
                meta.tau,
            )
            _write_real_matrix(outdir / f"mode_{idx}.csv", np.real(shaped))
    elif name == "acf":
        max_lag = min(args.max_lag, residuals.shape[1] - 1)
        table = {}
        bound = 3.0 / np.sqrt(residuals.shape[1])
        for i in range(residuals.shape[0]):
            series, bound = residual_acf(residuals[i], max_lag)
            table[i] = series
        with open(outdir / "acf.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lag"] + [f"sensor_{i}" for i in table])
            for lag in range(max_lag + 1):
                writer.writerow([lag] + [f"{table[i][lag]:.8g}" for i in table])
        (outdir / "acf.json").write_text(
            json.dumps({"confidence_bound": bound, "max_lag": int(max_lag)}, indent=2)
            + "\n"
        )
    elif name == "residual-corr":
        lags = [int(v) for v in args.lags.split(",")]
        mean_abs = {}
        for lag in lags:
            matrix, mean_value = residual_lag_correlation(residuals, lag)
            _write_real_matrix(outdir / f"residual_corr_lag{lag}.csv", matrix)
            mean_abs[str(lag)] = mean_value
        (outdir / "residual_corr.json").write_text(
            json.dumps({"mean_abs_correlation": mean_abs}, indent=2) + "\n"
        )
    elif name == "per-sensor-mape":
        estimate = truth - residuals
        values = mape_per_sensor(truth, estimate)
        groups = predictability_groups(values)
        with open(outdir / "mape.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sensor", "mape_percent", "group"])
            for i, (value, group) in enumerate(zip(values, groups)):
                writer.writerow([i, f"{value:.8g}", group])


def cmd_metrics(args) -> int:
    truth = load_matrix(args.truth, layout=args.layout, delta_t=args.dt)
    estimate = load_matrix(args.estimate, layout=args.layout, delta_t=args.dt)
    mae, rmse = mae_rmse(truth.values, estimate.values)
    payload = {"mae": mae, "rmse": rmse}
    if args.mape:
        values = mape_per_sensor(truth.values, estimate.values)
        payload["mape_per_sensor"] = [None if np.isnan(v) else v for v in values]
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_io_args(sub):
    sub.add_argument("--input", default="", help="input CSV path")
    sub.add_argument("--layout", choices=["rows", "cols"], default="rows",
                     help="sensors as rows or columns in the CSV")
    sub.add_argument("--dt", type=float, default=1.0 / 12.0,
                     help="sampling interval in hours")
    sub.add_argument("--split-index", type=int, default=0,
                     help="train/test split column; 0 disables splitting")
    sub.add_argument("--config", help="key=value config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdmd",
        description="Spectral decomposition toolkit for sensor-by-time matrices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="emit a synthetic CSV fixture")
    synth.add_argument("--out", default="")
    synth.add_argument("--n", type=int, default=10)
    synth.add_argument("--t", type=int, default=2016)
    synth.add_argument("--dt", type=float, default=1.0 / 12.0)
    synth.add_argument("--components", default="inf:60;24:8;168:5",
                       help='semicolon list of period:amplitude[:phase], "inf" allowed')
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--outlier-rate", type=float, default=0.0)
    synth.add_argument("--outlier-magnitude", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--layout", choices=["rows", "cols"], default="rows")
    synth.add_argument("--config", help="key=value config file; flags override")
    synth.set_defaults(func=cmd_synth)

    fit_cmd = subs.add_parser("fit", help="fit a decomposition and save the bundle")
    _add_io_args(fit_cmd)
    fit_cmd.add_argument("--method", default="circ",
                         choices=["dmd", "hankel", "fb-hankel", "tls-hankel", "circ", "circ-sp"])
    fit_cmd.add_argument("--tau", type=int, default=None, help="delay embedding length")
    fit_cmd.add_argument("--rank", default="auto", help='"auto" or a fixed integer')
    fit_cmd.add_argument("--gamma", type=float, default=0.0)
    fit_cmd.add_argument("--gamma-grid", default="",
                         help="comma list; fit one bundle per value with warm starts")
    fit_cmd.add_argument("--admm-rho", type=float, default=1.0)
    fit_cmd.add_argument("--admm-max-iter", type=int, default=10000)
    fit_cmd.add_argument("--out", default="", help="bundle output directory")
    fit_cmd.add_argument("--force", action="store_true",
                         help="overwrite a bundle fit from different input")
    fit_cmd.set_defaults(func=cmd_fit)

    rec = subs.add_parser("reconstruct", help="reconstruct history from a bundle")
    _add_io_args(rec)
    rec.add_argument("--bundle", required=True)
    rec.add_argument("--out", default="")
    rec.set_defaults(func=cmd_reconstruct)

    fcst = subs.add_parser("forecast", help="extend the evolution past the train window")
    _add_io_args(fcst)
    fcst.add_argument("--bundle", required=True)
    fcst.add_argument("--horizon", type=int, default=None,
                      help="forecast columns; defaults to the test split length")
    fcst.add_argument("--split-days", type=int, default=3,
                      help="boundary (days) between the two forecast metric windows")
    fcst.add_argument("--out", default="")
    fcst.set_defaults(func=cmd_forecast)

    ana = subs.add_parser("analyze", help="emit diagnostic tables from a bundle")
    _add_io_args(ana)
    ana.add_argument("--bundle", required=True)
    ana.add_argument("--out", default="")
    ana.add_argument("--run", default="", help=f"comma list from {ANALYSES}")
    ana.add_argument("--stability", action="store_true")
    ana.add_argument("--stability-tol", type=float, default=1e-3)
    ana.add_argument("--periods", action="store_true")
    ana.add_argument("--modes", action="store_true")
    ana.add_argument("--mode-indices", default="", help="comma list of mode indices")
    ana.add_argument("--acf", action="store_true")
    ana.add_argument("--max-lag", type=int, default=288)
    ana.add_argument("--residual-corr", action="store_true")
    ana.add_argument("--lags", default="1,2,6,12")
    ana.add_argument("--per-sensor-mape", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    met = subs.add_parser("metrics", help="compare a truth CSV against an estimate CSV")
    met.add_argument("--truth", required=True)
    met.add_argument("--estimate", required=True)
    met.add_argument("--layout", choices=["rows", "cols"], default="rows")
    met.add_argument("--dt", type=float, default=1.0 / 12.0)
    met.add_argument("--mape", action="store_true")
    met.add_argument("--out", default="")
    met.add_argument("--config", help="key=value config file; flags override")
    met.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
