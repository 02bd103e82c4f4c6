"""End-to-end command-line checks: file formats, reproducibility, round trips,
exit codes."""

import json
import os

import numpy as np
import pytest

from cqrt import build_density
from cqrt.cli import main, parse_initial_points, parse_model
from cqrt.serialize import (
    read_crossings,
    read_density,
    read_field,
    read_manifest,
    read_table,
    write_crossings,
    write_density,
    write_table,
)
from cqrt.wavefield import Eigenstate, GaussianPacket


class TestParsers:
    def test_model_eigenstate(self):
        assert parse_model("eigenstate:3") == Eigenstate(3)

    def test_model_gaussian(self):
        model = parse_model("gaussian:p0=1.5,form=simplified")
        assert model == GaussianPacket(1.5, "simplified")

    def test_model_bad(self):
        from cqrt.cli import UsageError

        with pytest.raises(UsageError):
            parse_model("harmonic:2")

    def test_init_plus_minus(self):
        pts = parse_initial_points("±0.95,0", Eigenstate(1), 4, 42)
        assert pts == (complex(0.95, 0), complex(-0.95, 0))
        ascii_pts = parse_initial_points("+-0.95,0", Eigenstate(1), 4, 42)
        assert ascii_pts == pts

    def test_init_multiple_points(self):
        pts = parse_initial_points("+-1,0;+-2,0;0,0", Eigenstate(4), 10, 42)
        assert pts == (1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 0j)

    def test_init_born_sampler(self):
        pts = parse_initial_points("born", Eigenstate(1), 50, 42)
        assert len(pts) == 50
        assert all(p.imag == 0 for p in pts)


def _run_simulate(out_dir, seed="42", extra=()):
    args = ["simulate", "--model", "eigenstate:1", "--init", "+-0.95,0",
            "--n", "200", "--dt", "0.01", "--t", "0.5", "--seed", seed,
            "--out", str(out_dir), *extra]
    return main(args)


class TestSimulateCommand:
    def test_outputs_and_manifest(self, tmp_path):
        assert _run_simulate(tmp_path / "run") == 0
        names = os.listdir(tmp_path / "run")
        assert "crossings.csv" in names
        assert "final.csv" in names
        assert "manifest.json" in names
        manifest = read_manifest(tmp_path / "run" / "manifest.json")
        assert manifest["config"]["model"] == "eigenstate:1"
        assert manifest["config"]["n_steps"] == 50
        from cqrt.serialize import sha256_file

        for name, digest in manifest["files"].items():
            assert sha256_file(tmp_path / "run" / name) == digest

    def test_byte_identical_reruns(self, tmp_path):
        _run_simulate(tmp_path / "a")
        _run_simulate(tmp_path / "b")
        for name in ("crossings.csv", "final.csv"):
            with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read()
        ma = read_manifest(tmp_path / "a" / "manifest.json")
        mb = read_manifest(tmp_path / "b" / "manifest.json")
        assert ma["run_id"] == mb["run_id"]
        assert ma["files"] == mb["files"]

    def test_different_seed_changes_data(self, tmp_path):
        _run_simulate(tmp_path / "a")
        _run_simulate(tmp_path / "c", seed="7")
        with open(tmp_path / "a" / "crossings.csv", "rb") as fa, \
                open(tmp_path / "c" / "crossings.csv", "rb") as fc:
            assert fa.read() != fc.read()

    def test_snapshots_written(self, tmp_path):
        rc = main(["simulate", "--model", "gaussian:p0=1", "--init", "0,0",
                   "--n", "100", "--dt", "0.01", "--t", "0.3",
                   "--snapshots", "0.1,0.3", "--out", str(tmp_path / "run")])
        assert rc == 0
        names = os.listdir(tmp_path / "run")
        assert "snapshot_0.1.csv" in names
        assert "snapshot_0.3.csv" in names

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=eigenstate:1\ninit=+-0.95,0\nn=100\ndt=0.01\nt=0.5\nseed=5\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--seed", "42", "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"]["seed"] == "42"  # flag wins over the file
        assert manifest["config"]["n"] == "100"


class TestAnalyzeCommand:
    def test_set_a_report(self, tmp_path):
        pool = tmp_path / "pool"
        _run_simulate(pool, extra=("--n", "2000"))
        out = tmp_path / "analysis"
        rc = main(["analyze", "--pool", str(pool), "--set", "a",
                   "--reference", "quantum_eigenstate", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert -1.0 <= report["gamma"] <= 1.0
        centers, densities, stderr = read_density(out / "density.csv")
        assert centers.size == 100
        width = centers[1] - centers[0]
        assert np.sum(densities) * width == pytest.approx(1.0, abs=1e-9)

    def test_self_comparison_gamma_one(self, tmp_path):
        # a density compared against itself through the compare command
        centers = np.linspace(-3, 3, 60)
        dens = np.exp(-centers**2)
        dens /= dens.sum() * (centers[1] - centers[0])
        density = build_density(
            np.repeat(centers, 10), 60, (-3.05, 3.05)
        )
        path = tmp_path / "d.csv"
        write_density(str(path), density)
        rc = main(["compare", "--first", str(path), "--second", str(path)])
        assert rc == 0

    def test_missing_model_metadata(self, tmp_path):
        pool = tmp_path / "pool"
        pool.mkdir()
        (pool / "crossings.csv").write_text("traj_id,t,x\n")
        rc = main(["analyze", "--pool", str(pool), "--set", "a", "--out", str(tmp_path / "o")])
        assert rc == 3  # manifest missing -> I/O failure


class TestFpeCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "fpe"
        rc = main(["fpe", "--n", "1", "--L", "5", "--grid", "81", "--t", "0.1",
                   "--out", str(out)])
        assert rc == 0
        xc, yc, rho = read_field(out / "field.csv")
        assert rho.shape == (80, 80)
        assert xc.size == 80
        centers, dens, _ = read_density(out / "marginal.csv")
        width = centers[1] - centers[0]
        assert np.sum(dens) * width == pytest.approx(1.0, abs=1e-9)

    def test_grid_convergence_smoke(self, tmp_path):
        for lines in (101, 201):
            rc = main(["fpe", "--n", "1", "--L", "5", "--grid", str(lines),
                       "--t", "0.1", "--out", str(tmp_path / f"g{lines}")])
            assert rc == 0
        rc = main(["compare",
                   "--first", str(tmp_path / "g201" / "marginal.csv"),
                   "--second", str(tmp_path / "g101" / "marginal.csv"),
                   "--out", str(tmp_path / "cmp.json")])
        assert rc == 0
        gamma = json.loads((tmp_path / "cmp.json").read_text())["gamma"]
        assert gamma >= 0.999

    def test_t_zero_marginal(self, tmp_path):
        out = tmp_path / "fpe0"
        rc = main(["fpe", "--n", "1", "--grid", "81", "--t", "0", "--out", str(out)])
        assert rc == 0
        centers, dens, _ = read_density(out / "marginal.csv")
        expected = (centers**2 + 0.5) * np.exp(-(centers**2))
        expected /= expected.sum() * (centers[1] - centers[0])
        np.testing.assert_allclose(dens, expected, rtol=5e-3, atol=1e-9)


class TestPlotCommand:
    def test_density_with_curves(self, tmp_path):
        pool = tmp_path / "pool"
        _run_simulate(pool, extra=("--n", "500"))
        out = tmp_path / "a"
        main(["analyze", "--pool", str(pool), "--set", "a",
              "--reference", "quantum_eigenstate", "--out", str(out)])
        svg = tmp_path / "plot.svg"
        rc = main(["plot", "--density", str(out / "density.csv"),
                   "--curve", "quantum_eigenstate:n=1",
                   "--report", str(out / "report.json"),
                   "--title", "set A vs quantum", "--out", str(svg)])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        assert "Gamma" in text

    def test_curves_only_fig1_analogue(self, tmp_path):
        svg = tmp_path / "n25.svg"
        rc = main(["plot", "--curve", "quantum_eigenstate:n=25",
                   "--curve", "classical:n=25", "--range=-9,9",
                   "--out", str(svg)])
        assert rc == 0
        assert "<svg" in svg.read_text()

    def test_single_series_renders_without_annotation(self, tmp_path):
        svg = tmp_path / "one.svg"
        rc = main(["plot", "--curve", "classical:n=3", "--range=-4,4",
                   "--out", str(svg)])
        assert rc == 0
        assert "Gamma" not in svg.read_text()


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "x")]) == 1
        assert main(["simulate", "--model", "nonsense:1", "--out", str(tmp_path / "y")]) == 1
        assert main(["frobnicate"]) == 1

    def test_numerical_error(self, tmp_path):
        rc = main(["simulate", "--model", "eigenstate:0", "--init", "2e6,0",
                   "--n", "10", "--dt", "0.01", "--t", "0.1",
                   "--out", str(tmp_path / "blow")])
        assert rc == 2

    def test_io_error(self, tmp_path):
        rc = main(["analyze", "--pool", str(tmp_path / "missing"), "--set", "a",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        rc = main(["plot", "--density", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "p.svg")])
        assert rc == 3

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "eigenstate:1", "--dt", "-1"],
        ["simulate", "--model", "eigenstate:1", "--n", "0"],
        ["simulate", "--model", "gaussian:p0=abc"],
        ["plot", "--curve", "quantum_eigenstate", "--range=-3,3"],
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1

    def test_reversed_range_is_usage_error(self, tmp_path):
        pool = tmp_path / "pool"
        assert _run_simulate(pool) == 0
        rc = main(["analyze", "--pool", str(pool), "--range", "5,1",
                   "--out", str(tmp_path / "o")])
        assert rc == 1


class TestRoundTrip:
    def test_density_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        density = build_density(rng.normal(size=977), 23, (-3.7, 4.1))
        path = tmp_path / "density.csv"
        write_density(str(path), density)
        centers, dens, stderr = read_density(path)
        np.testing.assert_array_equal(centers, density.bin_centers)
        np.testing.assert_array_equal(dens, density.densities)
        np.testing.assert_array_equal(stderr, density.stderr)

    def test_crossings_round_trip(self, tmp_path):
        pool = tmp_path / "pool"
        _run_simulate(pool)
        ids, times, xs = read_crossings(pool / "crossings.csv")
        assert ids.dtype.kind == "i"
        assert times.size == xs.size == ids.size
        assert times.size > 0

    @pytest.mark.parametrize("rows", [0, 1, 5])
    def test_table_round_trip_row_counts(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        ids = np.arange(rows) * 7
        times, xs = rng.random(rows), rng.normal(size=rows) * 1e-300
        path = tmp_path / "crossings.csv"
        write_crossings(str(path), ids, times, xs)
        header, cols = read_table(str(path))
        assert header == ["traj_id", "t", "x"]
        assert [c.shape for c in cols] == [(rows,)] * 3
        back_ids, back_times, back_xs = read_crossings(path)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_times, times)
        np.testing.assert_array_equal(back_xs, xs)
        write_table(str(path), ["t"], [times])
        assert read_table(str(path))[1][0].tolist() == times.tolist()
