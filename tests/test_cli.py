import csv
import json

import numpy as np
import pytest

from circdmd import load_matrix
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
        "amplitudes.csv", "eigenvalues.csv", "manifest.json", "modes.csv",
    ]


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
    assert (out / "stability.csv").exists()
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


def test_read_config_file_parsing(tmp_path):
    config = tmp_path / "c.conf"
    config.write_text("a = 1\nb=two # trailing comment\n\n# full comment\n")
    values = read_config_file(config)
    assert values == {"a": "1", "b": "two"}


def test_write_config_file_round_trip(tmp_path):
    from circdmd.cli import write_config_file

    path = tmp_path / "out.conf"
    write_config_file(path, {"method": "circ", "tau": 864, "gamma": 500.0, "skip": None})
    assert read_config_file(path) == {"method": "circ", "tau": "864", "gamma": "500.0"}


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


def _parent_layout(bundle):
    """The layout of earlier releases: both mode flavours, no modes.csv."""
    modes = bundle / "modes.csv"
    (bundle / "modes_projected.csv").write_text(modes.read_text())
    (bundle / "eigvecs_reduced.csv").write_text("c0_re,c0_im\n1,0\n")
    modes.rename(bundle / "modes_exact.csv")


def _truncate_rows(bundle):
    lines = (bundle / "modes.csv").read_text().splitlines(keepends=True)
    (bundle / "modes.csv").write_text("".join(lines[: len(lines) // 2]))


def _truncate_mid_line(bundle):
    text = (bundle / "modes.csv").read_text()
    (bundle / "modes.csv").write_text(text[: len(text) // 2 + 3])


def _no_manifest(bundle):
    (bundle / "manifest.json").unlink()


def _rank_mismatch(bundle):
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["rank"] += 1
    (bundle / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (_parent_layout, "modes.csv"),
        (_truncate_rows, "modes.csv"),
        (_truncate_mid_line, "modes.csv"),
        (_rank_mismatch, "eigenvalues.csv"),
        (_no_manifest, "manifest.json"),
    ],
)
def test_unusable_bundle_is_an_error(tmp_path, fixture_csv, capsys, corrupt, named):
    bundle = _fit(tmp_path, fixture_csv)
    corrupt(bundle)
    capsys.readouterr()
    code = main([
        "forecast", "--input", str(fixture_csv), "--dt", str(1 / 12),
        "--bundle", str(bundle), "--horizon", "12", "--out", str(tmp_path / "fc"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(bundle / named) in err
