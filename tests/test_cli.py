"""End-to-end command-line checks: file formats, reproducibility, round trips,
exit codes."""

import json
import os
import shlex
import time
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from cqrt import (
    FpGrid,
    SimulationConfig,
    build_density,
    eigenstate_bin_range,
    extract_point_set_b,
    fp_solve,
    gaussian_bin_range,
    simulate_ensemble,
    snapshot_positions,
)
from cqrt import serialize
from cqrt.cli import build_parser, main, parse_initial_points, parse_model
from cqrt.serialize import (
    read_crossings,
    read_density,
    read_field,
    read_manifest,
    read_points,
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
        with pytest.raises(ValueError):
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
        assert sorted(os.listdir(tmp_path / "run")) == [
            "crossings.csv", "final.csv", "manifest.json", "points.csv"]
        ids, times, _, _ = read_points(tmp_path / "run" / "points.csv")
        np.testing.assert_array_equal(ids, np.tile(np.arange(100), 2))
        np.testing.assert_array_equal(times, np.repeat([10 * 0.01, 30 * 0.01], 100))

    def test_duration_covers_the_writes(self, tmp_path, monkeypatch):
        write_table = serialize.write_table

        def slow_write_table(*args, **kwargs):
            time.sleep(0.2)
            write_table(*args, **kwargs)

        monkeypatch.setattr(serialize, "write_table", slow_write_table)
        assert main(["simulate", "--model", "eigenstate:1", "--n", "4", "--t", "0.02",
                     "--out", str(tmp_path / "run")]) == 0
        assert read_manifest(tmp_path / "run" / "manifest.json")["duration_s"] >= 0.2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=eigenstate:1\ninit=+-0.95,0\nn=100\ndt=0.01\nt=0.5\nseed=5\n")
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(cfg), "--seed", "42", "--out", str(out)])
        assert rc == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"]["seed"] == 42  # flag wins over the file
        assert manifest["config"]["n"] == 100


class TestConfigFile:
    """A config file's key=value lines are read as flags placed before the
    command line's own, so they are typed and checked like flags."""

    def _simulate(self, out, *flags):
        return main(["simulate", "--model", "eigenstate:1", "--init", "+-0.015,0",
                     "--n", "50", "--t", "0.2", "--out", str(out), *flags])

    def test_drift_cap_reaches_run_and_manifest_as_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# launches close to the node, where the cap bites\ndrift_cap=5\n")
        assert self._simulate(tmp_path / "file", "--config", str(cfg)) == 0
        assert self._simulate(tmp_path / "flag", "--drift-cap", "5") == 0
        assert self._simulate(tmp_path / "default") == 0
        file_run, flag_run, default_run = (read_manifest(tmp_path / name / "manifest.json")
                                           for name in ("file", "flag", "default"))
        assert file_run["config"]["drift_cap"] == 5.0
        assert isinstance(file_run["config"]["drift_cap"], float)
        assert file_run["run_id"] == flag_run["run_id"]
        assert file_run["files"] == flag_run["files"]
        assert file_run["diagnostics"] == flag_run["diagnostics"]
        assert file_run["diagnostics"]["capped_steps"] > 0
        assert default_run["diagnostics"] != file_run["diagnostics"]

    def test_fpe_keys_with_underscores(self, tmp_path):
        cfg = tmp_path / "fpe.cfg"
        cfg.write_text("n=1\nL=4\ngrid=41\ndt_pde=0.001\nt=0.01\n")
        out = tmp_path / "fpe"
        assert main(["fpe", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = read_manifest(out / "manifest.json")
        assert manifest["config"]["L"] == 4.0
        assert manifest["config"]["dt_pde"] == 0.001
        assert manifest["diagnostics"]["dt_pde"] == 0.001
        assert manifest["diagnostics"]["steps"] == 10

    @pytest.mark.parametrize("text", ["frobnicate=1\n", "n=abc\n", "no equals sign\n"])
    def test_bad_file_is_usage_error(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model=eigenstate:1\n" + text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--model", "eigenstate:1", "--config",
                     str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]) == 3


class TestReadmeExamples:
    """Every cqrt command in the README's "Command line" block must parse, so
    a renamed or removed flag fails here instead of silently breaking the docs."""

    @staticmethod
    def commands():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(line, comments=True)[1:] for line in lines
                if line.strip().startswith("cqrt ")]

    def test_block_has_every_subcommand(self):
        assert {argv[0] for argv in self.commands()} == {
            "simulate", "analyze", "fpe", "plot", "compare"}

    def test_every_command_parses(self):
        for argv in self.commands():
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: cqrt {shlex.join(argv)}")
            assert args.command == argv[0]


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

    def test_run_id_follows_the_pool(self, tmp_path):
        pool = tmp_path / "pool"

        def run_id(out):
            assert main(["analyze", "--pool", str(pool), "--out", str(tmp_path / out)]) == 0
            return read_manifest(tmp_path / out / "manifest.json")["run_id"]

        _run_simulate(pool, seed="42")
        first = run_id("a1")
        assert run_id("a2") == first
        _run_simulate(pool, seed="7321")
        assert run_id("a3") != first

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

    @pytest.mark.parametrize("rows", [0, 1])
    def test_compare_needs_two_bins(self, tmp_path, capsys, rows):
        good = tmp_path / "good.csv"
        write_density(str(good), build_density(np.linspace(-1, 1, 50), 10, (-1, 1)))
        short = tmp_path / "short.csv"
        short.write_text("".join(good.read_text().splitlines(keepends=True)[:rows + 1]))
        for first, second in ((short, good), (good, short)):
            rc = main(["compare", "--first", str(first), "--second", str(second),
                       "--out", str(tmp_path / "cmp.json")])
            assert rc == 1
            assert "error:" in capsys.readouterr().err
            assert not (tmp_path / "cmp.json").exists()

    def test_compare_needs_increasing_centers(self, tmp_path, capsys):
        # a density with its rows reversed is no density, in either position
        good = tmp_path / "good.csv"
        write_density(str(good), build_density(np.linspace(-1, 1, 50), 10, (-1, 1)))
        header, *rows = good.read_text().splitlines(keepends=True)
        reversed_ = tmp_path / "reversed.csv"
        reversed_.write_text("".join([header, *rows[::-1]]))
        for first, second in ((reversed_, good), (good, reversed_)):
            rc = main(["compare", "--first", str(first), "--second", str(second),
                       "--out", str(tmp_path / "cmp.json")])
            assert rc == 1
            assert "strictly increasing" in capsys.readouterr().err
            assert not (tmp_path / "cmp.json").exists()

    def test_crossings_pool_has_no_points(self, tmp_path):
        pool = tmp_path / "pool"
        assert _run_simulate(pool) == 0
        assert sorted(os.listdir(pool)) == ["crossings.csv", "final.csv", "manifest.json"]
        for flags in (("--set", "b"), ("--set", "snapshot", "--t", "0.5")):
            assert main(["analyze", "--pool", str(pool), *flags,
                         "--out", str(tmp_path / "o")]) == 1
            assert not (tmp_path / "o").exists()

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

    def test_resolution_numbers_in_manifest(self, tmp_path):
        # 5 lines on [-2, 2]: 4 cells of width 1, centers at +-0.5 and +-1.5,
        # dt_pde = 0.5 * 1 / (2 (1/4 + 1/4)) = 0.5.  The n = 0 drift is the
        # rotation (-y, x), so max|ux| = max|uy| = 1.5, under the speed cap
        out = tmp_path / "fpe"
        rc = main(["fpe", "--n", "0", "--L", "2", "--grid", "5", "--t", "0.5",
                   "--out", str(out)])
        assert rc == 0
        diagnostics = read_manifest(out / "manifest.json")["diagnostics"]
        assert diagnostics["dt_pde"] == 0.5
        assert diagnostics["courant"] == pytest.approx(1.5 * 0.5 / 1 + 1.5 * 0.5 / 1)
        assert diagnostics["cell_peclet"] == pytest.approx(1.5 * 1 / (2 * 0.25))

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

    def test_markup_in_texts_is_escaped(self, tmp_path):
        density = tmp_path / "a<b&c.csv"
        write_density(str(density), build_density(np.linspace(-1, 1, 50), 10, (-1, 1)))
        svg = tmp_path / "escaped.svg"
        rc = main(["plot", "--density", str(density), "--curve", "quantum_eigenstate:n=1",
                   "--title", "n<2 & t=1", "--out", str(svg)])
        assert rc == 0
        texts = [el.text for el in ElementTree.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "n<2 & t=1" in texts and "a<b&c.csv" in texts

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
        ["simulate", "--model", "eigenstate:71"],  # above MAX_QUANTUM_NUMBER
        ["fpe", "--n", "71"],
        # reversed pairs fail before any I/O: the missing pool would exit 3
        ["analyze", "--pool", "missing-pool", "--range", "5,1"],
        ["analyze", "--pool", "missing-pool", "--window", "1.0,0.4"],
        ["plot", "--curve", "classical:n=3", "--range=3,-3"],
        # --snapshots selects the snapshots record mode; --record cannot join it
        ["simulate", "--model", "eigenstate:1", "--record", "full", "--snapshots", "0.5"],
        ["simulate", "--model", "eigenstate:1", "--record", "crossings", "--snapshots", "0.5"],
        ["simulate", "--model", "eigenstate:1", "--record", "snapshots"],
        ["simulate", "--model", "eigenstate:1", "--snapshots", "inf"],
        # non-finite numbers are rejected before any step count is rounded
        ["simulate", "--model", "eigenstate:1", "--t", "inf"],
        ["simulate", "--model", "eigenstate:1", "--drift-cap", "nan"],
        ["fpe", "--n", "1", "--t", "inf"],
        ["analyze", "--pool", "snapshot-pool", "--set", "snapshot", "--t", "inf"],
        # a NaN cap would cap nothing; the FPE takes the integrator's rule
        ["fpe", "--drift-cap", "nan", "--t", "0.5", "--grid", "21"],
        ["fpe", "--drift-cap", "0", "--t", "0.5", "--grid", "21"],
        ["fpe", "--drift-cap", "inf", "--t", "0.5", "--grid", "21"],
        # an infinite half-width gives NaN cells, a NaN one no grid at all
        ["fpe", "--L", "inf", "--t", "0.5", "--grid", "21"],
        ["fpe", "--L", "nan", "--t", "0.5", "--grid", "21"],
        # a reference's quantum number is an integer in Eigenstate's range
        ["plot", "--curve", "quantum_eigenstate:n=-1", "--range=-3,3"],
        ["plot", "--curve", "quantum_eigenstate:n=1.7", "--range=-3,3"],
        ["plot", "--curve", "classical:n=2.9", "--range=-3,3"],
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, argv):
        if "snapshot-pool" in argv:
            assert _run_simulate(tmp_path / "snapshot-pool", extra=("--snapshots", "0.5")) == 0
        argv = [str(tmp_path / arg) if arg in ("missing-pool", "snapshot-pool") else arg
                for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()

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


class TestPinnedBytes:
    """The exact bytes and values that every writer and reader must keep."""

    def test_table_literal(self, tmp_path):
        path = tmp_path / "t.csv"
        ids = np.array([0, -1, 7, 10**12, np.iinfo(np.int64).min, np.iinfo(np.int64).max, 3])
        values = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 0.1])
        write_table(str(path), ["id", "v"], [ids, values])
        assert path.read_text() == (
            "id,v\n0,-0\n-1,inf\n7,-inf\n1000000000000,nan\n"
            "-9223372036854775808,4.9406564584124654e-324\n"
            "9223372036854775807,1e-300\n3,0.10000000000000001\n")
        write_table(str(path), ["id", "v"], [ids[:0], values[:0]])
        assert path.read_text() == "id,v\n"

    @staticmethod
    def _analyze(pool, out, *flags):
        assert main(["analyze", "--pool", str(pool), "--out", str(out), *flags]) == 0
        return read_density(out / "density.csv")

    @staticmethod
    def _assert_points(pool, ens):
        """points.csv holds every recorded row of the live paths, time-major."""
        header, (ids, times, xs, ys) = read_table(str(pool / "points.csv"))
        assert header == ["traj_id", "t", "x", "y"]
        live = np.flatnonzero(ens.alive)
        np.testing.assert_array_equal(ids, np.tile(live, ens.times.size))
        np.testing.assert_array_equal(times, np.repeat(ens.times, live.size))
        np.testing.assert_array_equal(xs, ens.x[:, live].ravel())
        np.testing.assert_array_equal(ys, ens.y[:, live].ravel())

    @staticmethod
    def _assert_density(got, samples, bin_range):
        expected = build_density(samples, 100, bin_range)
        for column, values in zip(got, (expected.bin_centers, expected.densities,
                                        expected.stderr)):
            np.testing.assert_array_equal(column, values)

    def test_full_record_paths_and_set_b(self, tmp_path):
        pool = tmp_path / "pool"
        assert main(["simulate", "--model", "eigenstate:2", "--init", "+-0.5,0.1",
                     "--n", "300", "--t", "0.5", "--record", "full", "--seed", "42",
                     "--out", str(pool)]) == 0
        ens = simulate_ensemble(SimulationConfig(
            model=Eigenstate(2), dt=0.01, t_final=0.5,
            initial_points=parse_initial_points("+-0.5,0.1", Eigenstate(2), 300, 42),
            n_trajectories=300, master_seed=42, record_mode="full_path"))
        self._assert_points(pool, ens)
        bin_range = eigenstate_bin_range(2)
        self._assert_density(self._analyze(pool, tmp_path / "b", "--set", "b"),
                             extract_point_set_b(ens), bin_range)
        self._assert_density(
            self._analyze(pool, tmp_path / "bw", "--set", "b", "--window", "0.2,0.4"),
            extract_point_set_b(ens, window=(0.2, 0.4)), bin_range)
        # a full pool answers --set snapshot at any step, not only at its ends
        self._assert_density(
            self._analyze(pool, tmp_path / "s", "--set", "snapshot", "--t", "0.25"),
            snapshot_positions(ens, 0.25), bin_range)
        for which in ("a", "b"):  # an empty selection is a numerical failure
            assert main(["analyze", "--pool", str(pool), "--set", which, "--window", "0.6,0.7",
                         "--out", str(tmp_path / "empty")]) == 2

    def test_snapshot_pool_set_b_and_snapshot(self, tmp_path):
        pool = tmp_path / "pool"
        assert main(["simulate", "--model", "gaussian:p0=1", "--init", "0,0", "--n", "400",
                     "--t", "1", "--snapshots", "0.5,1", "--seed", "7",
                     "--out", str(pool)]) == 0
        ens = simulate_ensemble(SimulationConfig(
            model=GaussianPacket(1.0), dt=0.01, t_final=1.0, initial_points=(0j,),
            n_trajectories=400, master_seed=7, record_mode="snapshots",
            snapshot_times=(0.5, 1.0)))
        self._assert_points(pool, ens)
        self._assert_density(self._analyze(pool, tmp_path / "b", "--set", "b", "--t", "1"),
                             extract_point_set_b(ens), gaussian_bin_range(1.0, 1.0))
        self._assert_density(
            self._analyze(pool, tmp_path / "s", "--set", "snapshot", "--t", "0.5"),
            snapshot_positions(ens, 0.5), gaussian_bin_range(1.0, 0.5))

    def test_snapshot_time_rounds_to_the_step_grid(self, tmp_path):
        pool = tmp_path / "pool"
        assert main(["simulate", "--model", "gaussian:p0=1", "--init", "0,0", "--n", "400",
                     "--t", "1", "--snapshots", "0.503,1", "--seed", "7",
                     "--out", str(pool)]) == 0
        ens = simulate_ensemble(SimulationConfig(
            model=GaussianPacket(1.0), dt=0.01, t_final=1.0, initial_points=(0j,),
            n_trajectories=400, master_seed=7, record_mode="snapshots",
            snapshot_times=(0.503, 1.0)))
        np.testing.assert_array_equal(ens.times, [0.5, 1.0])
        self._assert_points(pool, ens)
        # the samples, the bins and the reference all belong to step time 0.5
        self._assert_density(
            self._analyze(pool, tmp_path / "s", "--set", "snapshot", "--t", "0.503",
                          "--reference", "quantum_gaussian"),
            snapshot_positions(ens, 0.503), gaussian_bin_range(1.0, 0.5))
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        assert report["reference_name"] == "quantum_gaussian(p0=1.0, t=0.5)"
        # a time the pool did not record is a usage error; an empty window is
        # a numerical failure, as on a full pool
        for flags, rc in ((("--set", "snapshot", "--t", "0.7"), 1),
                          (("--set", "b", "--t", "1", "--window", "0.6,0.7"), 2)):
            assert main(["analyze", "--pool", str(pool), *flags,
                         "--out", str(tmp_path / "o")]) == rc

    def test_field_round_trip_is_exact(self, tmp_path):
        out = tmp_path / "fpe"
        assert main(["fpe", "--n", "3", "--grid", "41", "--t", "0.02", "--out", str(out)]) == 0
        grid = FpGrid(L=5.0, nx=40, ny=40)
        xc, yc, rho = read_field(out / "field.csv")
        np.testing.assert_array_equal(xc, grid.x_centers)
        np.testing.assert_array_equal(yc, grid.y_centers)
        np.testing.assert_array_equal(rho, fp_solve(Eigenstate(3), grid, 0.02).rho)
