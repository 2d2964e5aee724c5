"""Batch command-line interface.

Subcommands: synth, fit, reconstruct, forecast, analyze, metrics.
Options may also come from a flat key=value config file (``--config``),
whose lines become the command's own flags ahead of the typed ones.
Every output is UTF-8 CSV/JSON except a bundle's two arrays in NumPy's
documented ``.npy`` format, which write and read at memory speed:
``modes.npy``, the complex128 mode matrix, and ``input.npy``, the
float64 matrix parsed from ``--input``. ``forecast``, ``reconstruct``
and ``analyze`` read ``input.npy`` once ``--input``'s sha256 matches the
manifest's, so only ``fit`` parses the CSV. The bundle's eigenvalues
and amplitudes stay CSV, as paired re/im columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import shutil
import sys
import warnings
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
from .datamodel import (
    Dataset, SpeedMatrix, _check_finite, _write_csv, load_matrix, save_matrix, split,
)
from .errors import ConfigError, DataError, ShapeError, ToolkitError, UsageError
from .spectral import RANK_AUTO, DynamicSpectrum, SpectrumMeta
from .synthgen import Component, SyntheticSpec, generate
from .variants import METHODS, VariantConfig, _check_gamma_path, fit, fit_gamma_path, predict

ANALYSES = ("stability", "periods", "modes", "acf", "residual-corr", "per-sensor-mape")
BUNDLE_FILES = ("manifest.json", "eigenvalues.csv", "amplitudes.csv", "modes.npy", "input.npy")


# ----------------------------------------------------------------------
# config file handling
# ----------------------------------------------------------------------

def read_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _with_config(parser, argv) -> list:
    """``argv`` with its subcommand's ``--config`` lines as that command's
    own flags, placed ahead of the typed ones: ``--key=value`` for an
    option that takes a value, and for one that does not, ``--key`` when
    the value is 1/true/yes/on and nothing otherwise."""
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    at = next((i + 1 for i, token in enumerate(argv) if token in subs.choices), None)
    if at is None:
        return argv
    command = subs.choices[argv[at - 1]]
    find = argparse.ArgumentParser(prog=command.prog, add_help=False)
    find.add_argument("--config")
    path = find.parse_known_args(argv[at:])[0].config
    if not path:
        return argv
    tokens = []
    for key, value in read_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or action.dest in ("config", "help"):
            raise ConfigError(f"{path}: unknown config key {key!r}")
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return argv[:at] + tokens + argv[at:]


# ----------------------------------------------------------------------
# bundle IO
# ----------------------------------------------------------------------

def _write_complex_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.ascontiguousarray(matrix, dtype=complex))
    header = [f"c{k}_{part}" for k in range(matrix.shape[1]) for part in ("re", "im")]
    _write_csv(path, matrix.view(float), header=header)  # rows re0, im0, re1, im1, ...


def _read_complex_matrix(path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0::2] + 1j * data[:, 1::2]


def input_digest(path) -> str:
    """The sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_bundle(outdir, spectrum: DynamicSpectrum, digest: str, values: np.ndarray,
                layout: str = "rows", split_index: int = 0):
    """Write ``spectrum`` as a bundle in ``outdir``, with ``values``, the
    whole matrix parsed from the input whose sha256 is ``digest``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        **dataclasses.asdict(spectrum.meta),
        "split_index": split_index,
        "layout": layout,
        "input_digest": digest,
        "software_version": __version__,
    }
    if spectrum.sparsity is not None:
        manifest["nonzero_count"] = spectrum.sparsity.nonzero_count
        manifest["admm_converged"] = bool(spectrum.sparsity.converged)
    # The manifest goes last, so a bundle whose writing stopped part-way
    # has none (not an old one over new arrays) and does not load.
    (outdir / "manifest.json").unlink(missing_ok=True)
    _write_complex_matrix(outdir / "eigenvalues.csv", spectrum.eigenvalues[None, :])
    _write_complex_matrix(outdir / "amplitudes.csv", spectrum.amplitudes[None, :])
    np.save(outdir / "modes.npy", np.asarray(spectrum.modes, dtype=complex),
            allow_pickle=False)
    np.save(outdir / "input.npy", np.asarray(values, dtype=float), allow_pickle=False)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _read_bundle_matrix(path, shape) -> np.ndarray:
    """One complex array of a bundle, checked against the shape its manifest implies."""
    try:
        with warnings.catch_warnings():
            # loadtxt only warns, and returns an empty array, on a file without data rows
            warnings.simplefilter("error", UserWarning)
            matrix = _read_complex_matrix(path)
    except FileNotFoundError:
        raise DataError(f"{path}: missing from the bundle") from None
    except (ValueError, IndexError, UserWarning) as exc:
        raise DataError(f"{path}: not a paired re/im CSV matrix ({exc})") from None
    if matrix.shape != shape:
        raise ShapeError(f"{path}: shape {matrix.shape}, manifest implies {shape}")
    return matrix


def _read_bundle_npy(path, dtype, shape, wider=False) -> np.ndarray:
    """One ``.npy`` array of a bundle, of ``dtype`` and of the 2-D
    ``shape`` its manifest implies (or, if ``wider``, of that many rows
    and at least that many columns), every entry finite: a DataError
    names the file and the (row, column) indices, from 0, of the first
    ten that are not. Pickled data is refused, not run."""
    try:
        with open(path, "rb") as fh:
            array = np.load(fh, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"{path}: missing from the bundle") from None
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path}: not a .npy array ({exc})") from None
    if not isinstance(array, np.ndarray):  # an .npz archive
        raise DataError(f"{path}: not a .npy array")
    if array.dtype != dtype:
        raise DataError(f"{path}: dtype {array.dtype}, expected {np.dtype(dtype)}")
    if not (array.shape == shape or wider and array.ndim == 2
            and array.shape[0] == shape[0] and array.shape[1] >= shape[1]):
        implied = f"({shape[0]}, >= {shape[1]})" if wider else f"{shape}"
        raise ShapeError(f"{path}: shape {array.shape}, manifest implies {implied}")
    _check_finite(array, f"{path}: non-finite values")
    return array


def load_bundle(bundle_dir) -> DynamicSpectrum:
    """Read a bundle written by :func:`save_bundle`.

    Raises DataError naming a file that is missing or unreadable, or a
    manifest that lacks a key, names an unknown method or was written
    by another version of circdmd, and ShapeError naming an array whose
    shape disagrees with the manifest.
    """
    return _read_spectrum(Path(bundle_dir), load_manifest(bundle_dir))


def _read_spectrum(bundle_dir, manifest) -> DynamicSpectrum:
    """The spectrum of the bundle in ``bundle_dir`` whose manifest is
    ``manifest``, which must be of this version of circdmd and hold every
    key that the commands after fit read: a DataError names the file if not."""
    version = manifest.get("software_version")
    if version != __version__:
        raise DataError(f"{bundle_dir / 'manifest.json'}: software_version {version!r}, "
                        f"but this is circdmd {__version__}: re-fit the bundle")
    fields = [f.name for f in dataclasses.fields(SpectrumMeta)]
    keys = [*fields, "input_digest", "split_index", "layout"]
    missing = [name for name in keys if name not in manifest]
    if missing or manifest["method"] not in METHODS:
        problem = (f"lacks {', '.join(missing)}" if missing
                   else f"unknown method {manifest['method']!r}")
        raise DataError(f"{bundle_dir / 'manifest.json'}: {problem}")
    meta = SpectrumMeta(**{name: manifest[name] for name in fields})
    rank = meta.rank
    return DynamicSpectrum(
        eigenvalues=_read_bundle_matrix(bundle_dir / "eigenvalues.csv", (1, rank)).ravel(),
        modes=_read_bundle_npy(
            bundle_dir / "modes.npy", np.complex128, (meta.n_sensors * meta.tau, rank)
        ),
        amplitudes=_read_bundle_matrix(bundle_dir / "amplitudes.csv", (1, rank)).ravel(),
        meta=meta,
    )


def load_manifest(bundle_dir) -> dict:
    """A bundle's manifest; DataError naming the file if it is missing or not a JSON object."""
    path = Path(bundle_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"{path}: missing from the bundle") from None
    except ValueError as exc:  # JSON and UTF-8 decoding errors alike
        raise DataError(f"{path}: not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a JSON object")
    return manifest


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


def _split(data, split_index):
    """(train, dataset): ``data`` split at ``split_index``, or (data, None) at 0."""
    if split_index:
        dataset = split(data, split_index)
        return dataset.train, dataset
    return data, None


def _load_fitted(args):
    """The bundle's spectrum and ``--input``'s (train, dataset), read
    from the bundle's input.npy once ``--input``, ``--layout``, ``--dt``
    and ``--split-index`` are those the bundle was fit with; a DataError
    names both if not."""
    bundle = Path(args.bundle)
    manifest = load_manifest(bundle)
    spectrum = _read_spectrum(bundle, manifest)
    fitted = manifest["input_digest"]
    digest = input_digest(args.input)
    if digest != fitted:
        raise DataError(
            f"{args.input}: sha256 {digest}, but {args.bundle} was fit from "
            f"input with sha256 {fitted}"
        )
    for flag, given, key in (("--split-index", args.split_index, "split_index"),
                             ("--layout", args.layout, "layout"),
                             ("--dt", args.dt, "delta_t")):
        fitted = manifest[key]
        if given != fitted:
            raise DataError(f"{flag} {given}, but {args.bundle} was fit with {flag} {fitted}")
    meta = spectrum.meta
    values = _read_bundle_npy(bundle / "input.npy", np.float64,
                              (meta.n_sensors, meta.n_time), wider=True)
    k = args.split_index or values.shape[1]
    train = SpeedMatrix(values=values[:, :k], delta_t=meta.delta_t)
    if not args.split_index:
        return spectrum, train, None
    test = SpeedMatrix(values=values[:, k:], delta_t=meta.delta_t)
    return spectrum, train, Dataset(train=train, test=test, split_index=k)


def _grid_names(gammas) -> list:
    """The bundle name gamma_<g> of each grid value, in order; a
    UsageError names two values that would write the same bundle."""
    names = {}
    for gamma in gammas:
        name = f"gamma_{gamma:g}"
        if name in names:
            raise UsageError(
                f"--gamma-grid values {names[name]!r} and {gamma!r} both name the bundle {name}"
            )
        names[name] = gamma
    return list(names)


def cmd_fit(args) -> int:
    _require(args, "input", "out")
    if args.gamma_grid and args.gamma:
        raise UsageError(f"--gamma {args.gamma:g} with --gamma-grid: the grid sets every gamma")
    try:  # every option is checked before the input is read
        config = VariantConfig(method=args.method, tau=args.tau, rank=args.rank,
                               gamma=args.gamma, admm_max_iter=args.admm_max_iter)
        if args.gamma_grid:
            _check_gamma_path(config, args.gamma_grid)
    except ToolkitError as exc:
        raise UsageError(str(exc)) from None
    names = _grid_names(args.gamma_grid or [])
    train, dataset = _split(load_matrix(args.input, layout=args.layout, delta_t=args.dt),
                            args.split_index)
    digest = input_digest(args.input)
    outdir = Path(args.out)
    # a single fit writes <out>/manifest.json, a gamma grid <out>/gamma_*/
    for bundle in [outdir, *sorted(outdir.glob("gamma_*"))]:
        if (bundle / "manifest.json").exists() and not args.force:
            if load_manifest(bundle).get("input_digest") != digest:
                print(
                    f"error: {bundle} was fit from different input "
                    "(digest mismatch); use --force to overwrite",
                    file=sys.stderr,
                )
                return 1

    if args.gamma_grid:
        grid = fit_gamma_path(train, config, args.gamma_grid)
        values = _whole(train, dataset)
        _clear_out(outdir)
        rows = []
        for name, (gamma, spectrum, solution) in zip(names, grid):
            save_bundle(outdir / name, spectrum, digest, values, args.layout, args.split_index)
            _report_admm(spectrum)
            rows.append((gamma, solution.nonzero_count, solution.loss))
        _write_csv(outdir / "sparsity_path.csv", np.array(rows, dtype=object), "%s",
                   header=["gamma", "nonzero_count", "loss"])
        print(f"wrote {len(rows)} bundles under {outdir}")
        return 0

    spectrum = fit(train, config)
    _clear_out(outdir)
    save_bundle(outdir, spectrum, digest, _whole(train, dataset), args.layout,
                args.split_index)
    _report_admm(spectrum)
    print(
        f"fit method={spectrum.meta.method} tau={spectrum.meta.tau} "
        f"rank={spectrum.meta.rank} -> {outdir}"
    )
    return 0


def _whole(train, dataset) -> np.ndarray:
    """The parsed input matrix again, joined after the fit from the train
    and held-out parts, so that the fit holds no third copy of it."""
    return train.values if dataset is None else np.hstack([train.values, dataset.test.values])


def _clear_out(outdir) -> None:
    """One bundle kind per --out: remove, before a fit's bundles are
    written, every bundle entry of an earlier fit: the bundle's files,
    sparsity_path.csv and the gamma_*/ bundles."""
    for name in [*BUNDLE_FILES, "sparsity_path.csv"]:
        (outdir / name).unlink(missing_ok=True)
    for bundle in outdir.glob("gamma_*"):
        if bundle.is_dir():
            shutil.rmtree(bundle)


def _report_admm(spectrum) -> None:
    solution = spectrum.sparsity
    if solution is not None and not solution.converged:
        print(
            f"warning: ADMM did not converge for gamma={solution.gamma:g} "
            f"({solution.iterations} iterations)",
            file=sys.stderr,
        )


def cmd_reconstruct(args) -> int:
    _require(args, "input", "out")
    spectrum, train, _ = _load_fitted(args)
    estimate = predict(spectrum, (train.n_sensors, train.n_time), 0)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "reconstruction.csv", estimate)
    mae, rmse = mae_rmse(train.values, estimate)
    (outdir / "reconstruction_metrics.json").write_text(
        json.dumps({"mae": mae, "rmse": rmse}, indent=2) + "\n"
    )
    print(f"reconstruction MAE {mae:.4f} RMSE {rmse:.4f} -> {outdir}")
    return 0


def cmd_forecast(args) -> int:
    _require(args, "input", "out")
    spectrum, train, dataset = _load_fitted(args)
    horizon = args.horizon
    if horizon is None and dataset is not None:
        horizon = dataset.test.n_time
    if not horizon or horizon < 1:
        raise UsageError("horizon must be >= 1 (give --horizon or --split-index)")

    full = predict(spectrum, (train.n_sensors, train.n_time), horizon)
    forecast = full[:, train.n_time :]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "forecast.csv", forecast)

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
        metrics["mae"], metrics["rmse"] = mae_rmse(truth[:, :overlap], forecast[:, :overlap])
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
    outdir = Path(args.out)
    requested = list(dict.fromkeys(name.strip() for name in args.run))
    for name in requested:
        if name not in ANALYSES:
            raise UsageError(f"unknown analysis {name!r}; choose from {ANALYSES}")
    if not requested:
        raise UsageError("no analyses requested")
    residuals = truth = None
    if {"acf", "residual-corr", "per-sensor-mape"} & set(requested):
        if not args.input:
            raise UsageError("residual analyses need --input (and --split-index if used)")
        spectrum, train, _ = _load_fitted(args)
        truth = train.values
        estimate = predict(spectrum, (train.n_sensors, train.n_time), 0)
        residuals = truth - estimate
    else:
        spectrum = load_bundle(args.bundle)
    meta = spectrum.meta
    if "modes" in requested and args.mode_indices:
        outside = [i for i in args.mode_indices if not 0 <= i < meta.rank]
        if outside:
            raise UsageError(
                f"--mode-indices {outside} outside 0..{meta.rank - 1}, "
                f"the modes of this rank-{meta.rank} bundle"
            )
    outdir.mkdir(parents=True, exist_ok=True)

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
        ev, amp = spectrum.eigenvalues, spectrum.amplitudes
        # hypot rounds as abs() of one complex does; np.abs can differ in the last bit
        table = np.column_stack([
            ev.real, ev.imag, np.hypot(ev.real, ev.imag), report.steady_mask,
            periods_full, np.hypot(amp.real, amp.imag),
        ])
        _write_csv(outdir / "stability.csv", table[order],
                   ["%.17g"] * 3 + ["%d", "%.8g", "%.17g"],
                   header=["re", "im", "modulus", "steady", "period_hours", "amp_abs"])
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
        table = np.column_stack([
            report.periods,
            report.amplitudes_real,
            np.abs(spectrum.amplitudes[report.included]),
            weight[report.included],
        ])
        table = table[np.argsort(-table[:, 3], kind="stable")]
        kept = table[:, 2] != 0.0  # a sparsified mode stays in the bundle, not here
        _write_csv(outdir / "periods.csv", table[kept], "%.8g",
                   header=["period_hours", "amp_real", "amp_abs", "dominance"])
    elif name == "modes":
        indices = args.mode_indices or list(order[: min(5, order.size)])
        for idx in indices:
            shaped = reshape_mode(
                spectrum.modes[:, idx],
                spectrum.amplitudes[idx],
                meta.n_sensors,
                meta.tau,
            )
            _write_csv(outdir / f"mode_{idx}.csv", np.real(shaped))
    elif name == "acf":
        max_lag = min(args.max_lag, residuals.shape[1] - 1)
        table = [np.arange(max_lag + 1)]
        for row in residuals:
            series, bound = residual_acf(row, max_lag)
            table.append(series)
        n = residuals.shape[0]
        _write_csv(outdir / "acf.csv", np.column_stack(table), ["%d"] + ["%.8g"] * n,
                   header=["lag"] + [f"sensor_{i}" for i in range(n)])
        (outdir / "acf.json").write_text(
            json.dumps({"confidence_bound": bound, "max_lag": int(max_lag)}, indent=2)
            + "\n"
        )
    elif name == "residual-corr":
        mean_abs = {}
        for lag in args.lags:
            matrix, mean_value = residual_lag_correlation(residuals, lag)
            _write_csv(outdir / f"residual_corr_lag{lag}.csv", matrix)
            mean_abs[str(lag)] = mean_value
        (outdir / "residual_corr.json").write_text(
            json.dumps({"mean_abs_correlation": mean_abs}, indent=2) + "\n"
        )
    elif name == "per-sensor-mape":
        estimate = truth - residuals
        values = mape_per_sensor(truth, estimate)
        groups = predictability_groups(values)
        table = np.array(list(zip(range(values.size), values.tolist(), groups)), dtype=object)
        _write_csv(outdir / "mape.csv", table, ["%d", "%.8g", "%s"],
                   header=["sensor", "mape_percent", "group"])


def cmd_metrics(args) -> int:
    truth = load_matrix(args.truth, layout=args.layout)
    estimate = load_matrix(args.estimate, layout=args.layout)
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

def _at_least(low: int, auto: bool = False):
    """The argparse type of an integer >= ``low``, or of "auto" too."""
    expected = ('"auto" or ' if auto else "") + f"an integer >= {low}"

    def parse(text: str):
        if auto and text == RANK_AUTO:
            return RANK_AUTO
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _positive(text: str) -> float:
    """The argparse type of a finite float > 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a finite float > 0, got {text!r}")
    return value


def _comma_list(kind, low=None):
    """The argparse type of a comma list of ``kind`` values, each >= ``low`` if given."""
    expected = f"a comma list of {kind.__name__} values" + ("" if low is None else f" >= {low}")

    def parse(text: str) -> list:
        try:
            values = [kind(value) for value in text.split(",")]
        except ValueError:
            values = None
        if values is None or low is not None and not all(value >= low for value in values):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values
    return parse


def _add_io_args(sub):
    sub.add_argument("--input", default="", help="input CSV path")
    sub.add_argument("--layout", choices=["rows", "cols"], default="rows",
                     help="sensors as rows or columns in the CSV")
    sub.add_argument("--dt", type=float, default=1.0 / 12.0,
                     help="sampling interval in hours")
    sub.add_argument("--split-index", type=int, default=0,
                     help="train/test split column; 0 disables splitting")


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
    synth.set_defaults(func=cmd_synth)

    fit_cmd = subs.add_parser("fit", help="fit a decomposition and save the bundle")
    _add_io_args(fit_cmd)
    fit_cmd.add_argument("--method", default="circ", choices=METHODS)
    fit_cmd.add_argument("--tau", type=int, default=None, help="delay embedding length")
    fit_cmd.add_argument("--rank", type=_at_least(1, auto=True), default=RANK_AUTO,
                         help='"auto" or a fixed integer >= 1')
    fit_cmd.add_argument("--gamma", type=float, default=0.0)
    fit_cmd.add_argument("--gamma-grid", type=_comma_list(float, low=0), default=None,
                         help="comma list; fit one bundle per value with warm starts")
    fit_cmd.add_argument("--admm-max-iter", type=_at_least(1), default=10000)
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
    fcst.add_argument("--split-days", type=_at_least(0), default=3,
                      help="boundary (days) between the two forecast metric windows")
    fcst.add_argument("--out", default="")
    fcst.set_defaults(func=cmd_forecast)

    ana = subs.add_parser("analyze", help="emit diagnostic tables from a bundle")
    _add_io_args(ana)
    ana.add_argument("--bundle", required=True)
    ana.add_argument("--out", default="")
    ana.add_argument("--run", action="extend", type=lambda text: text.split(","),
                     default=[], help=f"comma list from {ANALYSES}")
    for name in ANALYSES:  # --stability is --run stability, and so on
        ana.add_argument(f"--{name}", dest="run", action="append_const", const=name)
    ana.add_argument("--stability-tol", type=_positive, default=1e-3)
    ana.add_argument("--mode-indices", type=_comma_list(int), default=None,
                     help="comma list of mode indices")
    ana.add_argument("--max-lag", type=_at_least(0), default=288)
    ana.add_argument("--lags", type=_comma_list(int, low=0), default="1,2,6,12")
    ana.set_defaults(func=cmd_analyze)

    met = subs.add_parser("metrics", help="compare a truth CSV against an estimate CSV")
    met.add_argument("--truth", required=True)
    met.add_argument("--estimate", required=True)
    met.add_argument("--layout", choices=["rows", "cols"], default="rows")
    met.add_argument("--mape", action="store_true")
    met.add_argument("--out", default="")
    met.set_defaults(func=cmd_metrics)

    for sub in subs.choices.values():
        sub.add_argument("--config", help="key=value config file; typed flags win")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a path that cannot be opened, read or written
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
