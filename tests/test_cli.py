import csv
import errno
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circdmd import DataError, load_matrix
from circdmd import cli
from circdmd.cli import load_bundle, load_manifest, main, read_config_file


@pytest.fixture
def fixture_csv(tmp_path):
    """A small noiseless periodic dataset written by the synth command."""
    path = tmp_path / "data.csv"
    code = main([
        "synth", "--out", str(path),
        "--n", "4", "--t", "288", "--dt", str(1 / 12),
        "--components", "inf:30;4:6:0.4;8:3",
        "--seed", "7",
    ])
    assert code == 0
    return path


def _fit(tmp_path, fixture_csv, *extra):
    bundle = tmp_path / "bundle"
    code = main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ", "--tau", "48", "--out", str(bundle), *extra,
    ])
    assert code == 0
    return bundle


def test_synth_writes_loadable_csv(fixture_csv):
    data = load_matrix(fixture_csv, layout="rows", delta_t=1 / 12)
    assert data.n_sensors == 4
    assert data.n_time == 288


def test_synth_deterministic(tmp_path, fixture_csv):
    other = tmp_path / "again.csv"
    main([
        "synth", "--out", str(other),
        "--n", "4", "--t", "288", "--dt", str(1 / 12),
        "--components", "inf:30;4:6:0.4;8:3",
        "--seed", "7",
    ])
    assert other.read_text() == fixture_csv.read_text()


def test_fit_writes_bundle(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    manifest = load_manifest(bundle)
    assert manifest["method"] == "circ"
    assert manifest["tau"] == 48
    assert manifest["rank"] >= 1
    assert manifest["software_version"]
    spectrum = load_bundle(bundle)
    assert spectrum.eigenvalues.shape[0] == manifest["rank"]
    assert spectrum.modes.shape == (4 * 48, manifest["rank"])
    assert sorted(p.name for p in bundle.iterdir()) == [
        "amplitudes.csv", "eigenvalues.csv", "input.npy", "manifest.json", "modes.npy",
    ]
    modes = np.load(bundle / "modes.npy", allow_pickle=False)
    assert modes.dtype == np.complex128 and modes.shape == (4 * 48, manifest["rank"])
    # the whole parsed input, held-out columns too
    values = np.load(bundle / "input.npy", allow_pickle=False)
    assert values.dtype == np.float64
    assert np.array_equal(values, load_matrix(fixture_csv).values)


def test_fit_digest_guard(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    # same input: overwrite is fine
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ", "--tau", "48", "--out", str(bundle),
    ]) == 0
    # modified input: refuse without --force
    modified = fixture_csv.read_text().replace("30", "31", 1)
    fixture_csv.write_text(modified)
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ", "--tau", "48", "--out", str(bundle),
    ]) == 1
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ", "--tau", "48", "--out", str(bundle), "--force",
    ]) == 0


def test_gamma_grid_digest_guard(tmp_path, fixture_csv, capsys):
    # a grid's manifests sit under <out>/gamma_*/, not at <out>/manifest.json
    grid = tmp_path / "grid"
    other = tmp_path / "other.csv"
    other.write_text(fixture_csv.read_text().replace("30", "31", 1))

    def fit_grid(path, *extra):
        return main([
            "fit", "--input", str(path), "--dt", str(1 / 12), "--method", "circ-sp",
            "--tau", "48", "--gamma-grid", "0,10", "--out", str(grid), *extra,
        ])

    def files():
        return {p: p.read_bytes() for p in sorted(grid.rglob("*")) if p.is_file()}

    assert fit_grid(fixture_csv) == 0
    before = files()
    assert fit_grid(fixture_csv) == 0  # same input: overwrite is fine
    capsys.readouterr()
    assert fit_grid(other) == 1
    assert f"error: {grid / 'gamma_0'} was fit from different input" in capsys.readouterr().err
    assert files() == before
    assert fit_grid(other, "--force") == 0
    digest = cli.input_digest(str(other))
    for name in ("gamma_0", "gamma_10"):
        assert load_manifest(grid / name)["input_digest"] == digest


# each command that predicts from --input, with the arguments of its run
PREDICTING = {
    "forecast": ["--split-days", "0"],
    "reconstruct": [],
    "analyze": ["--run", "acf,residual-corr,per-sensor-mape"],
}


@pytest.mark.parametrize("command", PREDICTING)
def test_commands_refuse_an_input_the_bundle_was_not_fit_from(tmp_path, fixture_csv, capsys,
                                                              command):
    bundle = _fit(tmp_path, fixture_csv, "--split-index", "192")
    other = tmp_path / "other.csv"
    other.write_text(fixture_csv.read_text().replace("30", "31", 1))  # one cell, same shape

    def run(path, split, out, *extra):
        return main([
            command, "--input", str(path), "--dt", str(1 / 12), "--split-index", split,
            "--bundle", str(bundle), "--out", str(tmp_path / out), *PREDICTING[command], *extra,
        ])

    assert run(fixture_csv, "192", "same") == 0
    capsys.readouterr()
    assert run(other, "192", "other") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {other}: sha256 {cli.input_digest(other)}, but {bundle}")
    assert cli.input_digest(fixture_csv) in err
    assert run(fixture_csv, "191", "split") == 1
    assert "--split-index 191, but" in capsys.readouterr().err
    # another --layout makes another matrix of the same file; forecast sized
    # its --split-days windows from --dt, the others read the bundle's
    assert run(fixture_csv, "192", "layout", "--layout", "cols") == 1
    err = capsys.readouterr().err
    assert err == f"error: --layout cols, but {bundle} was fit with --layout rows\n"
    assert run(fixture_csv, "192", "dt", "--dt", "0.5") == 1
    assert capsys.readouterr().err == f"error: --dt 0.5, but {bundle} was fit with --dt {1 / 12}\n"
    assert not any((tmp_path / out).exists() for out in ("other", "split", "layout", "dt"))


@pytest.mark.parametrize("command", PREDICTING)
def test_commands_after_fit_read_the_bundles_input_not_the_csv(tmp_path, fixture_csv, monkeypatch,
                                                               command):
    # fit parses --input once; a command after it reads the bundle's input.npy
    # and writes the bytes it writes from a parse of the same file
    parse = cli.load_matrix
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "load_matrix", counting)
    bundle = _fit(tmp_path, fixture_csv, "--split-index", "192")
    assert len(calls) == 1

    def run(out):
        assert main([
            command, "--input", str(fixture_csv), "--dt", str(1 / 12), "--split-index", "192",
            "--bundle", str(bundle), "--out", str(tmp_path / out), *PREDICTING[command],
        ]) == 0
        return {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()}

    read = run("read")
    assert len(calls) == 1
    monkeypatch.setattr(cli, "_load_fitted", lambda args: cli._split(
        parse(args.input, layout=args.layout, delta_t=args.dt), args.split_index))
    assert run("parsed") == read


def test_input_digest_streams_the_sha256_of_the_whole_file(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(0).bytes(5 * (1 << 19) + 3))  # 2.5 MiB and 3 bytes
    assert cli.input_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    path.write_bytes(b"")
    assert cli.input_digest(path) == hashlib.sha256(b"").hexdigest()


def test_fit_with_a_singular_backward_propagator_exits_1(tmp_path, capsys):
    # only column 0 is nonzero, so at tau = 4 the Hankel target is zero and
    # so is fb-hankel's backward propagator
    path = tmp_path / "spike.csv"
    values = np.zeros((3, 40))
    values[:, 0] = [1.0, 2.0, 3.0]
    np.savetxt(path, values, delimiter=",")
    capsys.readouterr()
    assert main([
        "fit", "--input", str(path), "--method", "fb-hankel", "--tau", "4",
        "--out", str(tmp_path / "bundle"),
    ]) == 1
    assert capsys.readouterr().err == "error: backward propagator is numerically singular\n"


def test_fit_that_cannot_map_its_gram_exits_1_naming_it(tmp_path, fixture_csv, capsys,
                                                        monkeypatch):
    import mmap

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refuse)
    capsys.readouterr()
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ", "--tau", "48", "--out", str(tmp_path / "bundle"),
    ]) == 1
    err = capsys.readouterr().err
    # circ at T = 288, N * tau = 192: the 192 x 192 stack-side Gram
    assert err == ("error: cannot map the 192 x 192 Gram matrix (294912 bytes): "
                   "Cannot allocate memory\n")
    assert not (tmp_path / "bundle").exists()


def test_bundle_round_trip_preserves_spectrum(tmp_path, fixture_csv):
    from circdmd import VariantConfig, fit as fit_api

    bundle = _fit(tmp_path, fixture_csv)
    loaded = load_bundle(bundle)
    data = load_matrix(fixture_csv, layout="rows", delta_t=1 / 12)
    direct = fit_api(data, VariantConfig(method="circ", tau=48))
    assert np.max(np.abs(loaded.eigenvalues - direct.eigenvalues)) <= 1e-12
    assert np.max(np.abs(loaded.amplitudes - direct.amplitudes)) <= 1e-12
    assert np.max(np.abs(loaded.modes - direct.modes)) <= 1e-12


def test_reconstruct_command(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    out = tmp_path / "rec"
    assert main([
        "reconstruct", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--bundle", str(bundle), "--out", str(out),
    ]) == 0
    metrics = json.loads((out / "reconstruction_metrics.json").read_text())
    assert metrics["mae"] <= 1e-6
    with open(out / "reconstruction.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4
    assert len(rows[0]) == 288


def test_forecast_command_with_split(tmp_path, fixture_csv):
    bundle = tmp_path / "bundle"
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--split-index", "192", "--method", "circ", "--tau", "48",
        "--out", str(bundle),
    ]) == 0
    out = tmp_path / "fc"
    assert main([
        "forecast", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--split-index", "192", "--bundle", str(bundle), "--out", str(out),
        "--split-days", "0",
    ]) == 0
    metrics = json.loads((out / "forecast_metrics.json").read_text())
    assert metrics["horizon"] == 96
    # noiseless periodic data with periods dividing the window: near-exact
    assert metrics["mae"] <= 1e-3
    assert "last_window" in metrics


def test_forecast_requires_horizon(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    code = main([
        "forecast", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--bundle", str(bundle), "--out", str(tmp_path / "fc"),
    ])
    assert code == 2  # usage error: no split, no horizon


def test_analyze_command(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    out = tmp_path / "ana"
    assert main([
        "analyze", "--bundle", str(bundle), "--out", str(out),
        "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--stability", "--periods", "--modes", "--mode-indices", "0,1",
        "--acf", "--max-lag", "24", "--residual-corr", "--lags", "1,2",
        "--per-sensor-mape",
    ]) == 0
    spectrum = load_bundle(bundle)
    with open(out / "stability.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # the text of abs() of each value, in the last digit too
    order = spectrum.dominance_order()
    assert [r[2] for r in rows] == [f"{abs(spectrum.eigenvalues[i]):.17g}" for i in order]
    assert [r[5] for r in rows] == [f"{abs(spectrum.amplitudes[i]):.17g}" for i in order]
    stability = json.loads((out / "stability.json").read_text())
    assert stability["deviation_sum"] <= 1e-6  # noiseless periodic: unit circle
    with open(out / "periods.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    periods = [float(r[0]) for r in rows[1:]]
    assert any(abs(p - 4.0) / 4.0 <= 0.01 for p in periods)
    assert any(abs(p - 8.0) / 8.0 <= 0.01 for p in periods)
    assert (out / "mode_0.csv").exists()
    assert (out / "acf.csv").exists()
    assert (out / "residual_corr_lag1.csv").exists()
    with open(out / "mape.csv", newline="") as fh:
        mape_rows = list(csv.reader(fh))
    assert len(mape_rows) == 5  # header + 4 sensors


def test_analyze_partial_failure_lists_artifact(tmp_path, fixture_csv, capsys):
    bundle = _fit(tmp_path, fixture_csv)
    out = tmp_path / "ana"
    code = main([
        "analyze", "--bundle", str(bundle), "--out", str(out),
        "--stability", "--stability-tol", "-1", "--periods",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "stability" in captured.err
    assert (out / "periods.csv").exists()  # the healthy analysis still ran


def test_analyze_unknown_name(tmp_path, fixture_csv):
    bundle = _fit(tmp_path, fixture_csv)
    code = main([
        "analyze", "--bundle", str(bundle), "--out", str(tmp_path / "x"),
        "--run", "nonsense",
    ])
    assert code == 2


def test_metrics_command(tmp_path, fixture_csv):
    out = tmp_path / "metrics.json"
    assert main([
        "metrics", "--truth", str(fixture_csv), "--estimate", str(fixture_csv),
        "--mape", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["mae"] == 0.0
    assert payload["rmse"] == 0.0


def test_config_file_supplies_defaults(tmp_path, fixture_csv):
    config = tmp_path / "run.conf"
    config.write_text(
        "# fit configuration\n"
        f"input = {fixture_csv}\n"
        "method = circ\n"
        "tau = 48\n"
        f"dt = {1 / 12}\n"
    )
    bundle = tmp_path / "bundle"
    assert main(["fit", "--config", str(config), "--out", str(bundle)]) == 0
    assert load_manifest(bundle)["tau"] == 48
    # explicit flag overrides the file value
    bundle2 = tmp_path / "bundle2"
    assert main([
        "fit", "--config", str(config), "--tau", "24", "--out", str(bundle2),
    ]) == 0
    assert load_manifest(bundle2)["tau"] == 24


def test_config_file_rejects_unknown_key(tmp_path, fixture_csv):
    config = tmp_path / "run.conf"
    config.write_text("bogus_key = 1\n")
    code = main([
        "fit", "--config", str(config), "--input", str(fixture_csv),
        "--method", "circ", "--tau", "48", "--out", str(tmp_path / "b"),
    ])
    assert code == 1


def _exit_code(argv):
    """main's exit code, argparse's usage exit (SystemExit) included."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _fit_argv(*typed):
    return ["fit", "--config", "{conf}", "--input", "{csv}", "--tau", "48", *typed]


# (config file, argv, exit code, what stderr holds, what must hold after);
# {conf}, {csv}, {other}, {bundle} and {out} are paths in tmp_path, where
# {bundle} is a circ fit of {csv} and {other} a different input
CONFIG_CASES = {
    "abbreviated-typed-flag-wins": (
        "method = circ\n", _fit_argv("--meth", "hankel", "--out", "{out}"), 0, "",
        lambda paths: load_manifest(paths["out"])["method"] == "hankel",
    ),
    "func-key": ("func = x\n", _fit_argv("--out", "{out}"), 1,
                 "unknown config key 'func'", lambda paths: not paths["out"].exists()),
    "command-key": ("command = analyze\n", _fit_argv("--out", "{out}"), 1,
                    "unknown config key 'command'", lambda paths: not paths["out"].exists()),
    "missing-file": (None, _fit_argv("--out", "{out}"), 1, "cannot read config file",
                     lambda paths: not paths["out"].exists()),
    "float-tau": ("tau = 24.0\n", ["fit", "--config", "{conf}", "--input", "{csv}",
                                     "--out", "{out}"], 2, "invalid int value: '24.0'",
                  lambda paths: not paths["out"].exists()),
    "layout-choices": ("layout = diagonal\n", _fit_argv("--out", "{out}"), 2,
                       "invalid choice: 'diagonal'", lambda paths: not paths["out"].exists()),
    "bundle-from-file": (
        "bundle = {bundle}\nhorizon = 12\n",
        ["forecast", "--config", "{conf}", "--input", "{csv}", "--out", "{out}"], 0, "",
        lambda paths: (paths["out"] / "forecast.csv").exists(),
    ),
    "force-false": ("force = false\nmethod = circ\n",
                    ["fit", "--config", "{conf}", "--input", "{other}", "--tau", "48",
                     "--out", "{bundle}"], 1, "digest mismatch",
                    lambda paths: load_manifest(paths["bundle"])["input_digest"]
                    == cli.input_digest(paths["csv"])),
    "force-true": ("force = true\nmethod = circ\n",
                   ["fit", "--config", "{conf}", "--input", "{other}", "--tau", "48",
                    "--out", "{bundle}"], 0, "",
                   lambda paths: load_manifest(paths["bundle"])["input_digest"]
                   == cli.input_digest(paths["other"])),
    "run-lists-combine": (
        "stability = true\n",
        ["analyze", "--config", "{conf}", "--bundle", "{bundle}", "--run", "periods",
         "--out", "{out}"], 0, "",
        lambda paths: all((paths["out"] / name).exists()
                          for name in ("stability.csv", "periods.csv")),
    ),
}


@pytest.mark.parametrize("case", CONFIG_CASES)
def test_config_file_lines_parse_as_the_commands_own_flags(tmp_path, fixture_csv, capsys,
                                                          case):
    text, argv, code, message, holds = CONFIG_CASES[case]
    paths = {"conf": tmp_path / "run.conf", "csv": fixture_csv, "other": tmp_path / "other.csv",
             "bundle": _fit(tmp_path, fixture_csv), "out": tmp_path / "out"}
    paths["other"].write_text(fixture_csv.read_text().replace("30", "31", 1))
    if text is not None:
        paths["conf"].write_text(text.format(**paths))
    capsys.readouterr()
    assert _exit_code([arg.format(**paths) for arg in argv]) == code
    assert message in capsys.readouterr().err
    assert holds(paths)


# (argv, option, bad value, what stderr holds): each value is a usage
# error, typed as a flag or given as a config line; {bundle} is a circ fit
BAD_VALUES = {
    "rank": (["fit", "--input", "{csv}", "--tau", "48", "--out", "{out}"], "rank", "x",
             "argument --rank: expected \"auto\" or an integer >= 1, got 'x'"),
    "rank-zero": (["fit", "--input", "{csv}", "--tau", "48", "--out", "{out}"], "rank", "0",
                  "argument --rank: expected \"auto\" or an integer >= 1, got '0'"),
    "gamma-grid": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                    "--out", "{out}"], "gamma_grid", "0,x",
                   "argument --gamma-grid: expected a comma list of float values"),
    "lags": (["analyze", "--input", "{csv}", "--bundle", "{bundle}", "--run", "residual-corr",
              "--out", "{out}"], "lags", "1,x",
             "argument --lags: expected a comma list of int values"),
    "mode-indices": (["analyze", "--bundle", "{bundle}", "--run", "modes", "--out", "{out}"],
                     "mode_indices", "0,99", "--mode-indices [99] outside 0.."),
    "split-days": (["forecast", "--input", "{csv}", "--bundle", "{bundle}", "--horizon", "10",
                    "--out", "{out}"], "split_days", "-1",
                   "argument --split-days: expected an integer >= 0, got '-1'"),
    # a cap of 0 ran no iteration and wrote all-zero amplitudes, with exit 0
    "admm-max-iter": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                       "--gamma", "10", "--out", "{out}"], "admm_max_iter", "0",
                      "argument --admm-max-iter: expected an integer >= 1, got '0'"),
    "admm-rho": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                  "--gamma", "10", "--out", "{out}"], "admm_rho", "-1",
                 "argument --admm-rho: expected a finite float > 0, got '-1'"),
    "admm-rho-zero": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                       "--gamma", "10", "--out", "{out}"], "admm_rho", "0",
                      "argument --admm-rho: expected a finite float > 0, got '0'"),
    # the grid's fits took no notice of --gamma, and wrote one bundle per grid value
    "gamma-with-grid": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                         "--gamma-grid", "0,10", "--out", "{out}"], "gamma", "5",
                        "--gamma 5 with --gamma-grid: the grid sets every gamma"),
    # both values print as 1 under %g, so both would write gamma_1
    "gamma-grid-clash": (["fit", "--input", "{csv}", "--method", "circ-sp", "--tau", "48",
                          "--out", "{out}"], "gamma_grid", "1,1.0000001",
                         "--gamma-grid values 1.0 and 1.0000001 both name the bundle gamma_1"),
}


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_option_values_are_usage_errors(tmp_path, fixture_csv, capsys, case, given):
    argv, key, value, message = BAD_VALUES[case]
    paths = {"csv": fixture_csv, "bundle": _fit(tmp_path, fixture_csv), "out": tmp_path / "out"}
    argv = [arg.format(**paths) for arg in argv]
    if given == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    capsys.readouterr()
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert not paths["out"].exists()


def test_read_config_file_parsing(tmp_path):
    config = tmp_path / "c.conf"
    config.write_text("a = 1\nb=two # trailing comment\n\n# full comment\n")
    values = read_config_file(config)
    assert values == {"a": "1", "b": "two"}


def test_gamma_grid_fit(tmp_path, fixture_csv):
    outdir = tmp_path / "grid"
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ-sp", "--tau", "48",
        "--gamma-grid", "0,10,100", "--out", str(outdir),
    ]) == 0
    with open(outdir / "sparsity_path.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0.0", "10.0", "100.0"]
    for gamma in ("0", "10", "100"):
        assert (outdir / f"gamma_{gamma}" / "manifest.json").exists()


def test_gamma_grid_refit_removes_the_bundles_it_leaves_out(tmp_path, fixture_csv):
    # a shorter grid into the same --out leaves no bundle of the earlier
    # grid (with its tau) beside its own, and the path lists only its own
    outdir = tmp_path / "grid"

    def fit_grid(tau, grid):
        return main([
            "fit", "--input", str(fixture_csv), "--dt", str(1 / 12), "--method", "circ-sp",
            "--tau", tau, "--gamma-grid", grid, "--out", str(outdir),
        ])

    assert fit_grid("48", "0,10,100") == 0
    (outdir / "notes.txt").write_text("kept")
    assert fit_grid("24", "0,10") == 0
    assert sorted(p.name for p in outdir.glob("gamma_*")) == ["gamma_0", "gamma_10"]
    for name in ("gamma_0", "gamma_10"):
        assert load_manifest(outdir / name)["tau"] == 24
    with open(outdir / "sparsity_path.csv", newline="") as fh:
        assert [r[0] for r in list(csv.reader(fh))[1:]] == ["0.0", "10.0"]
    assert (outdir / "notes.txt").read_text() == "kept"


def test_fit_leaves_one_bundle_kind_per_out(tmp_path, fixture_csv):
    # a single fit over a grid's --out, and a grid over a single bundle, leave
    # no bundle of the other kind behind; a fit that fails removes nothing
    outdir = tmp_path / "out"
    single = ["amplitudes.csv", "eigenvalues.csv", "input.npy", "manifest.json", "modes.npy",
              "notes.txt"]

    def fit_out(*typed):
        return main(["fit", "--input", str(fixture_csv), "--dt", str(1 / 12), *typed,
                     "--out", str(outdir)])

    def names():
        return sorted(p.name for p in outdir.iterdir())

    assert fit_out("--method", "circ-sp", "--tau", "48", "--gamma-grid", "0,10") == 0
    (outdir / "notes.txt").write_text("kept")
    assert fit_out("--method", "hankel", "--tau", "24") == 0
    assert names() == single
    assert load_manifest(outdir)["method"] == "hankel"
    assert fit_out("--method", "hankel", "--tau", "24", "--gamma-grid", "0,10") == 1
    assert names() == single
    assert fit_out("--method", "circ-sp", "--tau", "48", "--gamma-grid", "0,10") == 0
    assert names() == ["gamma_0", "gamma_10", "notes.txt", "sparsity_path.csv"]


def test_manifest_is_the_spectrum_meta_then_the_bundle_keys(tmp_path, fixture_csv):
    # SpectrumMeta's fields in their order, then the bundle's own keys: the
    # bytes of the manifest that listed each field by hand
    from circdmd import VariantConfig, __version__, fit as fit_api

    bundle = _fit(tmp_path, fixture_csv, "--method", "circ-sp", "--gamma", "10")
    data = load_matrix(fixture_csv, layout="rows", delta_t=1 / 12)
    spectrum = fit_api(data, VariantConfig(method="circ-sp", tau=48, gamma=10.0))
    meta = spectrum.meta
    expected = {
        "method": meta.method,
        "tau": meta.tau,
        "rank": meta.rank,
        "gamma": meta.gamma,
        "mode_flavor": meta.mode_flavor,
        "n_sensors": meta.n_sensors,
        "n_time": meta.n_time,
        "delta_t": meta.delta_t,
        "split_index": 0,
        "layout": "rows",
        "input_digest": cli.input_digest(fixture_csv),
        "software_version": __version__,
        "nonzero_count": spectrum.sparsity.nonzero_count,
        "admm_converged": bool(spectrum.sparsity.converged),
    }
    assert (bundle / "manifest.json").read_text() == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("method, tau", [("dmd", []), ("hankel", ["--tau", "48"])])
def test_gamma_grid_refuses_non_circular_methods(tmp_path, fixture_csv, capsys, method, tau):
    outdir = tmp_path / "grid"
    code = main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", method, *tau, "--gamma-grid", "0,10", "--out", str(outdir),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(method) in err
    assert not outdir.exists()


def test_interrupted_resave_leaves_an_unloadable_bundle(tmp_path, fixture_csv, monkeypatch):
    # re-saving over a bundle of the same shape, the modes write fails:
    # the old manifest must not vouch for the mix of old and new arrays
    from circdmd import cli

    bundle = _fit(tmp_path, fixture_csv)
    spectrum = load_bundle(bundle)
    write = cli._write_complex_matrix

    def failing(path, matrix):
        if path.name == "amplitudes.csv":
            raise OSError("disk full")
        write(path, matrix)

    monkeypatch.setattr(cli, "_write_complex_matrix", failing)
    with pytest.raises(OSError):
        cli.save_bundle(bundle, spectrum, "digest", np.load(bundle / "input.npy"))
    with pytest.raises(DataError, match="manifest.json"):
        load_bundle(bundle)


# A corrupter returns the text the error must hold besides the file's
# name, if any.

def _parent_layout(bundle):
    """The layout of earlier releases: modes.csv in place of modes.npy."""
    modes = bundle / "modes.npy"
    cli._write_complex_matrix(bundle / "modes.csv", np.load(modes))
    modes.unlink()
    return "re-fit"


def _truncated_npy(bundle):
    data = (bundle / "modes.npy").read_bytes()
    (bundle / "modes.npy").write_bytes(data[: len(data) // 2])


def _float_npy(bundle):
    np.save(bundle / "modes.npy", np.load(bundle / "modes.npy").real)


class _Loud:
    """Prints when unpickled: a bundle must never run the code it holds."""

    def __reduce__(self):
        return print, ("unpickled",)


def _pickled_npy(bundle):
    np.save(bundle / "modes.npy", np.array([_Loud()], dtype=object), allow_pickle=True)


def _npz_archive(bundle):
    with open(bundle / "modes.npy", "rb") as fh:
        modes = np.load(fh)
    with open(bundle / "modes.npy", "wb") as fh:
        np.savez(fh, modes=modes)


def _misshapen_npy(bundle):
    np.save(bundle / "modes.npy", np.load(bundle / "modes.npy")[1:])


def _no_input(bundle):
    """A bundle of earlier releases, which held no input matrix."""
    (bundle / "input.npy").unlink()
    return "re-fit"


def _pickled_input(bundle):
    np.save(bundle / "input.npy", np.array([_Loud()], dtype=object), allow_pickle=True)


def _float32_input(bundle):
    np.save(bundle / "input.npy", np.load(bundle / "input.npy").astype(np.float32))
    return "dtype float32, expected float64"


def _non_finite_input(bundle):
    values = np.load(bundle / "input.npy")
    values[1, 5] = np.nan
    np.save(bundle / "input.npy", values)
    return "non-finite values: [(1, 5)]"


def _input_missing_a_row(bundle):
    np.save(bundle / "input.npy", np.load(bundle / "input.npy")[1:])
    return "shape (3, 288), manifest implies (4, >= 288)"


def _input_missing_a_column(bundle):
    np.save(bundle / "input.npy", np.load(bundle / "input.npy")[:, 1:])
    return "shape (4, 287), manifest implies (4, >= 288)"


def _truncate_mid_line(bundle):
    text = (bundle / "amplitudes.csv").read_text()
    (bundle / "amplitudes.csv").write_text(text[: len(text) // 2 + 3])


def _header_only(bundle):
    lines = (bundle / "amplitudes.csv").read_text().splitlines(keepends=True)
    (bundle / "amplitudes.csv").write_text(lines[0])


def _non_numeric_cell(bundle):
    text = (bundle / "amplitudes.csv").read_text()
    header, first = text.split("\n", 1)
    (bundle / "amplitudes.csv").write_text("\n".join([header, "x" + first[1:]]))


def _no_manifest(bundle):
    (bundle / "manifest.json").unlink()


def _manifest_not_json(bundle):
    (bundle / "manifest.json").write_text('{"method": "circ", "tau": ')


def _manifest_lacks_a_key(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    del manifest["n_time"]
    (bundle / "manifest.json").write_text(json.dumps(manifest))


def _manifest_unknown_method(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["method"] = "nope"
    (bundle / "manifest.json").write_text(json.dumps(manifest))


def _rank_mismatch(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["rank"] += 1
    (bundle / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (_parent_layout, "modes.npy"),
        (_no_input, "input.npy"),
        (_pickled_input, "input.npy"),
        (_float32_input, "input.npy"),
        (_non_finite_input, "input.npy"),
        (_input_missing_a_row, "input.npy"),
        (_input_missing_a_column, "input.npy"),
        (_truncated_npy, "modes.npy"),
        (_float_npy, "modes.npy"),
        (_pickled_npy, "modes.npy"),
        (_npz_archive, "modes.npy"),
        (_misshapen_npy, "modes.npy"),
        (_truncate_mid_line, "amplitudes.csv"),
        (_header_only, "amplitudes.csv"),
        (_non_numeric_cell, "amplitudes.csv"),
        (_rank_mismatch, "eigenvalues.csv"),
        (_no_manifest, "manifest.json"),
        (_manifest_not_json, "manifest.json"),
        (_manifest_lacks_a_key, "manifest.json"),
        (_manifest_unknown_method, "manifest.json"),
    ],
)
def test_unusable_bundle_is_an_error(tmp_path, fixture_csv, capsys, corrupt, named):
    bundle = _fit(tmp_path, fixture_csv)
    hint = corrupt(bundle)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "forecast", "--input", str(fixture_csv), "--dt", str(1 / 12),
            "--bundle", str(bundle), "--horizon", "12", "--out", str(tmp_path / "fc"),
        ])
    assert code == 1
    assert not caught
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert str(bundle / named) in err
    assert hint is None or hint in err
    assert "unpickled" not in out


def test_gamma_path_bundles_match_a_lone_save(tmp_path, fixture_csv, monkeypatch):
    saved = {}
    save_bundle = cli.save_bundle

    def capturing(outdir, spectrum, *args, **kwargs):
        saved[Path(outdir).name] = spectrum
        save_bundle(outdir, spectrum, *args, **kwargs)

    monkeypatch.setattr(cli, "save_bundle", capturing)
    outdir = tmp_path / "grid"
    assert main([
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ-sp", "--tau", "48",
        "--gamma-grid", "0,10,100", "--out", str(outdir),
    ]) == 0
    monkeypatch.undo()
    assert sorted(saved) == ["gamma_0", "gamma_10", "gamma_100"]
    values = load_matrix(fixture_csv).values
    for name, spectrum in saved.items():
        alone = tmp_path / "alone" / name
        digest = load_manifest(outdir / name)["input_digest"]
        save_bundle(alone, spectrum, digest, values, split_index=0)
        assert sorted(p.name for p in alone.iterdir()) == sorted(
            p.name for p in (outdir / name).iterdir())
        for path in alone.iterdir():
            assert path.read_bytes() == (outdir / name / path.name).read_bytes()


@pytest.mark.parametrize("grid", [["--gamma-grid", "0,10"], ["--gamma", "10"]])
def test_fit_warns_when_admm_does_not_converge(tmp_path, fixture_csv, capsys, grid):
    argv = [
        "fit", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--method", "circ-sp", "--tau", "48", *grid,
    ]
    assert main([*argv, "--out", str(tmp_path / "converged")]) == 0
    assert "warning" not in capsys.readouterr().err
    assert main([*argv, "--admm-max-iter", "1", "--out", str(tmp_path / "stopped")]) == 0
    err = capsys.readouterr().err
    assert "warning: ADMM did not converge for gamma=10 (1 iterations)\n" in err


# -- paired re/im bundle CSV: the bytes of csv.writer with f"{v:.17g}" cells,
# and the values of the csv.reader/float() reader --------------------------

SPECIAL = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _csv_writer_text(matrix):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow([f"c{k}_{part}" for k in range(matrix.shape[1]) for part in ("re", "im")])
    for row in matrix:
        writer.writerow([f"{f:.17g}" for v in row for f in (v.real, v.imag)])
    return out.getvalue()


def _csv_reader_values(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    return data[:, 0::2] + 1j * data[:, 1::2]


@settings(max_examples=60, deadline=None, database=None)
@given(
    parts=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 5), st.just(2)),
                 elements=finite),
)
def test_complex_matrix_round_trip(tmp_path_factory, parts):
    matrix = parts.view(complex)[..., 0]  # each part exactly as drawn
    path = tmp_path_factory.mktemp("bundle") / "m.csv"
    cli._write_complex_matrix(path, matrix)
    with open(path, newline="") as fh:
        assert fh.read() == _csv_writer_text(matrix)
    back = cli._read_complex_matrix(path)
    assert np.array_equal(back.view(np.uint64), _csv_reader_values(path).view(np.uint64))
    assert np.array_equal(back, matrix)
