"""End-to-end command-line checks: file formats, reproducibility, round trips,
exit codes."""

import hashlib
import json
import os
import shlex
import shutil
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
    sample_initial_points,
    simulate_ensemble,
    snapshot_positions,
)
from cqrt import cli, fpe, serialize
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
    write_field,
    write_points,
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
            "crossings.csv", "crossings.npy", "final.csv", "manifest.json", "points.csv"]
        ids, times, _, _ = read_points(tmp_path / "run" / "points.csv")
        np.testing.assert_array_equal(ids, np.tile(np.arange(100), 2))
        np.testing.assert_array_equal(times, np.repeat([10 * 0.01, 30 * 0.01], 100))

    def test_fp_launches_are_the_samplers_points(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--model", "eigenstate:1", "--init", "fp", "--n", "50",
                     "--t", "0.1", "--snapshots", "0", "--seed", "7", "--out", str(out)]) == 0
        ids, times, xs, ys = read_points(out / "points.csv")
        np.testing.assert_array_equal(ids, np.arange(50))
        np.testing.assert_array_equal(times, np.zeros(50))
        np.testing.assert_array_equal(xs + 1j * ys, sample_initial_points(1, 50, 7))

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

    def test_dt_reaches_run_and_manifest_as_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# half the default time step\ndt=0.005\n")
        assert self._simulate(tmp_path / "file", "--config", str(cfg)) == 0
        assert self._simulate(tmp_path / "flag", "--dt", "0.005") == 0
        assert self._simulate(tmp_path / "default") == 0
        file_run, flag_run, default_run = (read_manifest(tmp_path / name / "manifest.json")
                                           for name in ("file", "flag", "default"))
        assert file_run["config"]["dt"] == 0.005
        assert isinstance(file_run["config"]["dt"], float)
        assert file_run["config"]["n_steps"] == 2 * default_run["config"]["n_steps"] == 40
        assert file_run["run_id"] == flag_run["run_id"]
        assert file_run["files"] == flag_run["files"]
        assert file_run["diagnostics"] == flag_run["diagnostics"]
        assert default_run["files"] != file_run["files"]

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

    def test_explicit_range_sets_the_bins(self, tmp_path):
        pool, out = tmp_path / "pool", tmp_path / "ana"
        assert _run_simulate(pool) == 0
        assert main(["analyze", "--pool", str(pool), "--range=-2,3", "--bins", "10",
                     "--out", str(out)]) == 0
        centers = read_density(out / "density.csv")[0]
        # ten bins of width 0.5 on [-2, 3]: the centres sit half a bin inside
        np.testing.assert_allclose(centers, np.linspace(-1.75, 2.75, 10), rtol=0, atol=1e-12)

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

    def test_copied_pool_keeps_the_run_id(self, tmp_path):
        # the pool's own run id (pool_run_id) names its data, not the path it is read from
        def run_id(pool, out):
            assert main(["analyze", "--pool", str(pool), "--out", str(tmp_path / out)]) == 0
            return read_manifest(tmp_path / out / "manifest.json")["run_id"]

        _run_simulate(tmp_path / "pool", seed="42")
        shutil.copytree(tmp_path / "pool", tmp_path / "copy")
        _run_simulate(tmp_path / "other", seed="7321")
        first = run_id(tmp_path / "pool", "a1")
        assert run_id(tmp_path / "copy", "a2") == first
        assert run_id(tmp_path / "other", "a3") != first

    def test_set_a_falls_back_to_the_csv(self, tmp_path):
        pool = tmp_path / "pool"
        assert _run_simulate(pool) == 0

        def analyze(out):
            assert main(["analyze", "--pool", str(pool), "--set", "a", "--window", "0.1,0.5",
                         "--reference", "quantum_eigenstate", "--out", str(tmp_path / out)]) == 0
            return [(tmp_path / out / f).read_bytes() for f in ("density.csv", "report.json")]

        from_npy = analyze("npy")
        (pool / "crossings.npy").unlink()  # as in a pool written before crossings.npy
        assert analyze("csv") == from_npy

    @pytest.mark.parametrize("table", [
        np.zeros(3, [("traj_id", "<i8"), ("t", "<f8"), ("y", "<f8")]),
        np.zeros(3),
        np.zeros((3, 1), [("traj_id", "<i8"), ("t", "<f8"), ("x", "<f8")]),
        np.zeros(3, [("traj_id", "<i8"), ("t", "<c16"), ("x", "<f8")]),
        np.zeros(3, [("traj_id", "<i8"), ("t", "<f8"), ("x", "O")]),
        np.array([None, {"x": 1}, [0.5]], dtype=object),
        None,
    ], ids=["field-names", "not-structured", "2-d", "complex-field", "object-field",
            "object-array", "empty-file"])
    def test_bad_crossings_npy_is_usage_error(self, tmp_path, capsys, table):
        pool = tmp_path / "pool"
        assert _run_simulate(pool) == 0
        with open(pool / "crossings.npy", "wb") as handle:
            if table is not None:
                np.save(handle, table, allow_pickle=True)
        assert main(["analyze", "--pool", str(pool), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {pool / 'crossings.npy'}: ")
        assert not (tmp_path / "o").exists()

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

    def test_compare_interpolates_at_the_first_files_centers(self, tmp_path):
        # unevenly spaced centres are compared where they are, not on bins
        # rebuilt from the first spacing
        x = np.linspace(-2, 2, 10)
        keep = [0, 1, 2, 4, 6, 8, 9]
        first, second = tmp_path / "uneven.csv", tmp_path / "even.csv"
        write_table(str(first), serialize.DENSITY_HEADER,
                    [x[keep], np.exp(-x[keep] ** 2), np.zeros(len(keep))])
        write_table(str(second), serialize.DENSITY_HEADER,
                    [x, np.exp(-(x - 0.3) ** 2), np.zeros(x.size)])
        out = tmp_path / "cmp.json"
        assert main(["compare", "--first", str(first), "--second", str(second),
                     "--out", str(out)]) == 0
        expected = np.corrcoef(np.exp(-x[keep] ** 2),
                               np.interp(x[keep], x, np.exp(-(x - 0.3) ** 2)))[0, 1]
        assert json.loads(out.read_text())["gamma"] == pytest.approx(expected, rel=1e-12)

    def test_compare_constant_density_is_numerical_failure(self, tmp_path, capsys):
        # an all-zero density has no variance in either position
        good = tmp_path / "good.csv"
        write_density(str(good), build_density(np.linspace(-1, 1, 50), 10, (-1, 1)))
        zero = tmp_path / "zero.csv"
        write_table(str(zero), serialize.DENSITY_HEADER,
                    [np.linspace(-1, 1, 10), np.zeros(10), np.zeros(10)])
        for first, second in ((zero, good), (good, zero)):
            rc = main(["compare", "--first", str(first), "--second", str(second),
                       "--out", str(tmp_path / "cmp.json")])
            assert rc == 2
            assert "constant" in capsys.readouterr().err
            assert not (tmp_path / "cmp.json").exists()

    def test_crossings_pool_has_no_points(self, tmp_path):
        pool = tmp_path / "pool"
        assert _run_simulate(pool) == 0
        assert sorted(os.listdir(pool)) == ["crossings.csv", "crossings.npy", "final.csv",
                                            "manifest.json"]
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
        # rotation (-y, x), so max|ux| = max|uy| = 1.5
        out = tmp_path / "fpe"
        rc = main(["fpe", "--n", "0", "--L", "2", "--grid", "5", "--t", "0.5",
                   "--out", str(out)])
        assert rc == 0
        diagnostics = read_manifest(out / "manifest.json")["diagnostics"]
        assert diagnostics["dt_pde"] == 0.5
        assert diagnostics["courant"] == pytest.approx(1.5 * 0.5 / 1 + 1.5 * 0.5 / 1)
        assert diagnostics["cell_peclet"] == pytest.approx(1.5 * 1 / (2 * 0.25))

    def test_builds_the_drift_field_once(self, tmp_path, monkeypatch):
        # the manifest's speeds come from the field that fp_solve marches in;
        # a second drift_field call, from cli or fpe, is counted too
        field, calls = fpe.drift_field, []

        def counting(*args):
            calls.append(args)
            return field(*args)

        monkeypatch.setattr(fpe, "drift_field", counting)
        monkeypatch.setattr(cli, "drift_field", counting, raising=False)
        assert main(["fpe", "--n", "3", "--grid", "41", "--t", "0.2",
                     "--out", str(tmp_path / "fpe")]) == 0
        assert len(calls) == 1

    def test_clipping_warning(self, tmp_path, capsys):
        assert main(["fpe", "--n", "3", "--grid", "21", "--t", "1",
                     "--out", str(tmp_path / "fpe")]) == 0
        out, err = capsys.readouterr()
        assert "clipped=11.460%" in out
        assert "warning: clipped mass exceeds 5%" in err

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

    def test_svg_bytes_are_pinned(self, tmp_path):
        # the classical density needs only sqrt, so no platform libm moves a byte
        density = tmp_path / "set_a.csv"
        write_table(str(density), serialize.DENSITY_HEADER,
                    [[-1.5, -0.5, 0.5, 1.5], [0.125, 0.375, 0.3125, 0.1875],
                     [0.01, 0.02, 0.02, 0.01]])
        report = tmp_path / "report.json"
        report.write_text('{"gamma": 0.912345}\n')
        one, two = tmp_path / "one.svg", tmp_path / "two.svg"
        assert main(["plot", "--density", str(density), "--curve", "classical:n=3",
                     "--title", "set A & n=3", "--report", str(report),
                     "--out", str(one)]) == 0
        assert main(["plot", "--curve", "classical:n=25", "--range=-9,9",
                     "--out", str(two)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (one, two)]
        assert digests == [
            "e3795544ef06e98ee18eba90983aa490a8799bb51672e3c371e24dc907a1647c",
            "e9ee6da608d2dc5dcf460e24cb5eb99006e12a9c69945141825c8eeefc260766"]

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
        ["fpe", "--n", "1", "--t", "inf"],
        ["analyze", "--pool", "snapshot-pool", "--set", "snapshot", "--t", "inf"],
        # the drift has no cap: an old flag or config file fails loudly
        ["simulate", "--model", "eigenstate:1", "--drift-cap", "10"],
        ["simulate", "--model", "eigenstate:1", "--config", "drift-cap-config"],
        ["fpe", "--drift-cap", "10", "--t", "0.5", "--grid", "21"],
        ["fpe", "--config", "drift-cap-config", "--t", "0.5", "--grid", "21"],
        # an infinite half-width gives NaN cells, a NaN one no grid at all
        ["fpe", "--L", "inf", "--t", "0.5", "--grid", "21"],
        ["fpe", "--L", "nan", "--t", "0.5", "--grid", "21"],
        # a reference's quantum number is an integer in Eigenstate's range
        ["plot", "--curve", "quantum_eigenstate:n=-1", "--range=-3,3"],
        ["plot", "--curve", "quantum_eigenstate:n=1.7", "--range=-3,3"],
        ["plot", "--curve", "classical:n=2.9", "--range=-3,3"],
        # a packet reference's momentum and time are finite
        ["plot", "--curve", "quantum_gaussian:p0=nan,t=1", "--range=-3,3"],
        ["plot", "--curve", "quantum_gaussian:p0=0,t=inf", "--range=-3,3"],
        # a curve takes only the parameters its reference needs, and the
        # error names the culprit
        ["plot", "--curve", "quantum_eigenstate:n=1,bogus=3", "--range=-3,3"],
        ["plot", "--curve", "nosuch:n=1", "--range=-3,3"],
        # plot has no --gamma; --report annotates the analysis' gamma
        ["plot", "--curve", "quantum_eigenstate:n=1", "--range=-3,3", "--gamma", "0.9"],
        # every value of a density file is finite: a NaN density, an infinite centre
        ["compare", "--first", "nan-density", "--second", "nan-density"],
        ["compare", "--first", "inf-density", "--second", "inf-density"],
        ["plot", "--density", "nan-density"],
        ["plot", "--density", "inf-density"],
        # a worker count is 0 (one per usable CPU) or more
        ["simulate", "--model", "eigenstate:1", "--threads", "-2"],
        # launches and models that do not parse
        ["simulate", "--model", "gaussian:p0=1", "--init", "born"],
        ["simulate", "--model", "eigenstate:1", "--init", "1,2,3"],
        ["simulate", "--model", "eigenstate:1", "--init", "a,1"],
        ["simulate", "--model", "eigenstate:1", "--init", ";"],
        ["simulate", "--model", "eigenstate:x"],
        ["simulate", "--model", "gaussian:form=exact"],
        # a window is a pair; a snapshot needs its time, a Gaussian pool a time or range
        ["analyze", "--pool", "missing-pool", "--window", "1"],
        ["analyze", "--pool", "snapshot-pool", "--set", "snapshot"],
        ["analyze", "--pool", "gaussian-pool"],
        ["fpe", "--grid", "3"],
        # a plot needs a series, and a curve alone needs its range
        ["plot"],
        ["plot", "--curve", "classical:n=3"],
        # a packet's momentum is finite
        ["simulate", "--model", "gaussian:p0=nan"],
        ["simulate", "--model", "gaussian:p0=inf"],
    ])
    def test_bad_values_are_usage_errors(self, tmp_path, capsys, argv):
        if "snapshot-pool" in argv:
            assert _run_simulate(tmp_path / "snapshot-pool", extra=("--snapshots", "0.5")) == 0
        if "gaussian-pool" in argv:
            assert main(["simulate", "--model", "gaussian:p0=1", "--n", "10", "--t", "0.1",
                         "--out", str(tmp_path / "gaussian-pool")]) == 0
        densities = {"nan-density": [[-1.0, 0.0, 1.0], [0.25, np.nan, 0.25]],
                     "inf-density": [[-np.inf, 0.0, 1.0], [0.25, 0.5, 0.25]]}
        for name, columns in densities.items():
            write_table(str(tmp_path / name), serialize.DENSITY_HEADER, [*columns, np.zeros(3)])
        (tmp_path / "drift-cap-config").write_text("drift_cap=10\n")
        files = ("missing-pool", "snapshot-pool", "gaussian-pool", "drift-cap-config")
        argv = [str(tmp_path / arg) if arg in (*files, *densities) else arg for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        named = {"quantum_eigenstate:n=1,bogus=3": "'bogus'",
                 "nosuch:n=1": "unknown reference 'nosuch'",
                 "-2": "threads must be >= 0", "1,2,3": "bad point '1,2,3'",
                 ";": "no initial points", "gaussian:form=exact": "requires p0",
                 "gaussian:p0=nan": "p0 must be finite", "gaussian:p0=inf": "p0 must be finite",
                 "quantum_gaussian:p0=nan,t=1": "p0 must be finite",
                 "quantum_gaussian:p0=0,t=inf": "t must be finite",
                 "10": "unrecognized arguments: --drift-cap 10",
                 str(tmp_path / "drift-cap-config"): "unrecognized arguments: --drift-cap=10"}
        for arg in argv:
            assert named.get(arg, "") in err

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

    @pytest.mark.parametrize("rows, suffix", [(rows, suffix) for suffix in (".csv", ".npy")
                                              for rows in (0, 1, 5)],
                             ids=["0", "1", "5", "0-npy", "1-npy", "5-npy"])
    def test_table_round_trip_row_counts(self, tmp_path, rows, suffix):
        rng = np.random.default_rng(rows)
        ids = np.arange(rows) * 7
        times, xs = rng.random(rows), rng.normal(size=rows) * 1e-300
        path = tmp_path / f"crossings{suffix}"
        write_crossings(path, ids, times, xs)
        written = path.read_bytes()
        assert written.startswith(b"\x93NUMPY") == (suffix == ".npy")
        header, cols = read_table(path)
        assert header == ["traj_id", "t", "x"]
        # CSV columns are float64; a .npy table's are its fields as stored
        id_dtype = np.int64 if suffix == ".npy" else np.float64
        assert [(c.shape, c.dtype) for c in cols] == [((rows,), id_dtype)] + [((rows,), float)] * 2
        back_ids, back_times, back_xs = read_crossings(path)
        assert back_ids.dtype.kind == "i"
        if suffix == ".npy" and rows:  # views of the loaded array, ids included
            assert back_ids.base is back_times.base is back_xs.base is not None
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_times, times)
        np.testing.assert_array_equal(back_xs, xs)
        # and back: the values read write the same bytes
        write_crossings(path, back_ids, back_times, back_xs)
        assert path.read_bytes() == written
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


def _frozen_write_table(path, header, columns):
    """The row-at-a-time formatter the block writer replaced, frozen to pin its bytes."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns)
    lines = [row % values for values in zip(*(c.tolist() for c in columns))]
    serialize.atomic_write_text(path, "\n".join([",".join(header), *lines]) + "\n")


class TestStreamedTables:
    """write_table streams fixed row blocks: the frozen formatter's bytes, bounded memory."""

    BLOCK = serialize._BLOCK_ROWS
    INTS = [0, -1, 7, 10**12, np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    FLOATS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 0.1]

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_bytes_match_the_frozen_formatter(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        ids = np.where(rng.random(rows) < 0.5, np.resize(self.INTS, rows),
                       rng.integers(-10**6, 10**6, rows))
        specials = np.resize(self.FLOATS, rows)
        columns = [ids, np.where(rng.random(rows) < 0.5, specials, rng.normal(size=rows)),
                   specials[::-1] * rng.random(rows)]
        header = ["id", "u", "v"]
        write_table(str(tmp_path / "new.csv"), header, columns)
        _frozen_write_table(str(tmp_path / "old.csv"), header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_points_and_field_match_the_frozen_formatter(self, tmp_path):
        rows = self.BLOCK + 1
        rng = np.random.default_rng(3)
        ids, xs, ys = np.arange(rows) * 3, rng.normal(size=rows), rng.normal(size=rows)
        write_points(str(tmp_path / "new.csv"), ids, 0.25, xs, ys)
        _frozen_write_table(str(tmp_path / "old.csv"), serialize.POINTS_HEADER,
                            [ids, np.broadcast_to(0.25, xs.shape), xs, ys])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        # a field as fpe writes one: 401 columns, one row per y centre
        x_centers, y_centers = np.linspace(-5, 5, 400), np.linspace(-4, 4, 400)
        rho = rng.random((400, 400)) ** 9
        write_field(str(tmp_path / "new.csv"), x_centers, y_centers, rho)
        _frozen_write_table(str(tmp_path / "old.csv"),
                            ["y\\x", *("%.17g" % x for x in x_centers)], [y_centers, *rho.T])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().count("\n") == 401

    def test_record_rows_match_the_frozen_formatter(self, tmp_path):
        # points.csv as simulate writes it: ids per column, a time per row,
        # the live paths' x and y rows; 3 rows of 3000 live paths put both
        # block boundaries inside a row, and path 17 is dead
        rng = np.random.default_rng(4)
        times, (x, y) = np.array([0.0, 0.5, 1.0]), rng.normal(size=(2, 3, 3001))
        alive = np.arange(3001) != 17
        ids = np.flatnonzero(alive)
        write_points(str(tmp_path / "new.csv"), ids, times[:, None], x[:, alive], y[:, alive])
        _frozen_write_table(str(tmp_path / "old.csv"), serialize.POINTS_HEADER,
                            [np.tile(ids, 3), np.repeat(times, ids.size),
                             x[:, alive].ravel(), y[:, alive].ravel()])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_full_record_pool_is_written_from_the_record_rows(self, tmp_path, monkeypatch,
                                                              traced_peak):
        # with every path alive, points.csv is written from the record arrays
        # themselves: the write phase holds no copy of the recorded x and y
        # (record_mb), let alone whole points.csv columns (twice as much again)
        write_run, peaks = serialize.write_run, []

        def traced_write_run(*args):
            peaks.append(traced_peak(write_run, *args)[1] / 1e6)

        monkeypatch.setattr(serialize, "write_run", traced_write_run)
        assert main(["simulate", "--model", "eigenstate:1", "--init", "+-0.95,0", "--n", "5000",
                     "--t", "1", "--record", "full", "--out", str(tmp_path / "pool")]) == 0
        assert json.loads((tmp_path / "pool" / "manifest.json").read_text())["diagnostics"][
            "diverged"] == 0
        record_mb = 2 * 101 * 5000 * 8 / 1e6
        assert peaks[0] < 0.5 * record_mb

    def test_failure_mid_stream_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.csv"
        bad = np.array([0.5] * (self.BLOCK + 3) + ["bad"], dtype=object)
        with pytest.raises(TypeError):  # the second block cannot be formatted
            write_table(str(path), ["x"], [bad])
        assert os.listdir(tmp_path) == []

        def pieces():
            yield "x\n"
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError, match="stopped"):
            serialize.atomic_write_text(str(path), pieces())
        assert os.listdir(tmp_path) == []

    def test_files_get_the_mode_open_gives(self, tmp_path):
        umask = os.umask(0o027)
        try:
            serialize.write_run(
                str(tmp_path / "run"),
                {"t.csv": lambda path: write_table(path, ["t"], [np.arange(3.0)])},
                {"seed": 1}, "0", time.monotonic(), {})
        finally:
            os.umask(umask)
        for name in ("t.csv", "manifest.json"):
            assert (tmp_path / "run" / name).stat().st_mode & 0o777 == 0o640

    def test_unequal_columns_rejected_before_any_file(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="differ in length"):
            write_table(str(path), ["a", "b"], [np.arange(5), np.arange(3.0)])
        with pytest.raises(ValueError, match="differ in length"):
            write_points(str(path), np.arange(2), 1.0, np.arange(4.0), np.arange(4.0))
        assert os.listdir(tmp_path) == []
        write_points(str(path), np.arange(4), 1.0, np.arange(4.0), np.arange(4.0))
        assert read_points(path)[1].tolist() == [1.0] * 4

    def test_write_memory_does_not_grow_with_rows(self, tmp_path, traced_peak):
        factor = 1.5  # traced peak at 8x the rows over the peak at 1x
        rng = np.random.default_rng(5)

        def peak(write, rows):
            columns = [np.arange(rows), rng.random(rows), rng.normal(size=rows)]
            return traced_peak(write, str(tmp_path / "t.csv"), serialize.CROSSINGS_HEADER,
                               columns)[1]

        rows = 2 * self.BLOCK
        assert peak(write_table, 8 * rows) <= factor * peak(write_table, rows)
        # the check tells the two writers apart
        assert peak(_frozen_write_table, 8 * rows) > factor * peak(_frozen_write_table, rows)


def _percent_text(values, form):
    """One value a line, each formatted by Python's % operator: the reference."""
    return "".join(form % v + "\n" for v in values.tolist()).encode()


class TestFormatterExactness:
    """write_table's vectorized text is byte for byte what % gives."""

    @staticmethod
    def _written(tmp_path, values):
        path = tmp_path / "v.csv"
        write_table(str(path), ["v"], [values])
        text = path.read_bytes()
        assert text.startswith(b"v\n")
        return text[2:]

    @pytest.mark.parametrize("kind", ["bits", "symmetric", "unit"])
    def test_floats_match_percent_g(self, tmp_path, kind):
        # 1.1e6 values in all: random bit patterns reach every binade, the
        # subnormals, both infinities and NaNs; U(-5, 5) and U(0, 1) are the
        # magnitudes of crossing positions and times
        rng = np.random.default_rng(["bits", "symmetric", "unit"].index(kind))
        values = {"bits": lambda: rng.integers(0, 2**64, 500_000, np.uint64).view(np.float64),
                  "symmetric": lambda: rng.uniform(-5, 5, 300_000),
                  "unit": lambda: rng.random(300_000)}[kind]()
        if kind == "bits":
            values[:4] = [np.inf, -np.inf, np.nan, 5e-324]
        assert self._written(tmp_path, values) == _percent_text(values, "%.17g")

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # each power of ten from 1e-5 to 1e17 with the 3 doubles on each side,
        # both signs, where the exponent and the rounding change; and +-0.0
        values = [0.0, -0.0]
        for e in range(-5, 18):
            for start in (10.0**e, float(f"1e{e}")):
                for direction in (np.inf, -np.inf):
                    v = start
                    for _ in range(4):
                        values += [v, -v]
                        v = np.nextafter(v, direction)
        values = np.array(values)
        assert self._written(tmp_path, values) == _percent_text(values, "%.17g")

    def test_ties_round_half_to_even(self, tmp_path):
        # n / 4 for odd n just above 4e15, and n / 8 for odd n just above
        # 8e14, have 18 significant digits ending in 5: a tie at the 17th
        quarters = (4 * 10**15 + np.arange(1, 2000, 2)) / 4.0
        eighths = (8 * 10**14 + np.arange(1, 4000, 2)) / 8.0
        values = np.concatenate([quarters, -quarters, eighths, -eighths])
        ties = ["%.18g" % abs(v) for v in values]
        assert all(len(t) == 19 and t.endswith("5") for t in ties)
        assert self._written(tmp_path, values) == _percent_text(values, "%.17g")

    def test_integers_at_every_digit_count(self, tmp_path):
        i64 = np.iinfo(np.int64)
        edges = [10**j + d for j in range(19) for d in (-1, 0, 1)]
        ints = np.array(edges + [-v for v in edges] + [0, i64.min, i64.min + 1,
                                                       i64.max - 1, i64.max], np.int64)
        assert self._written(tmp_path, ints) == _percent_text(ints, "%d")
        unsigned = np.array([0, 10**16 - 1, 10**16, 2**63, 2**64 - 1], np.uint64)
        assert self._written(tmp_path, unsigned) == _percent_text(unsigned, "%d")

    def test_narrow_and_bool_columns(self, tmp_path):
        rng = np.random.default_rng(9)
        columns = [rng.random(5000) < 0.5, rng.normal(size=5000).astype(np.float32),
                   rng.normal(size=5000).astype(np.float16), rng.integers(0, 256, 5000, np.uint8),
                   rng.integers(-2**31, 2**31, 5000).astype(np.int32)]
        header = list("abcde")
        write_table(str(tmp_path / "new.csv"), header, columns)
        _frozen_write_table(str(tmp_path / "old.csv"), header, columns)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_2d_columns_across_block_boundaries(self, tmp_path):
        # 3 rows of 3001 values: both block boundaries fall inside a row, and
        # each field's width changes from block to block
        rng = np.random.default_rng(11)
        block = serialize._BLOCK_ROWS
        bits = rng.integers(0, 2**64, (3, 3001), np.uint64).view(np.float64)
        scale = 10.0 ** rng.integers(-6, 18, (3, 3001))
        ids = np.broadcast_to(np.arange(3001) * 10**9, (3, 3001))
        columns = [ids, np.broadcast_to([[0.0], [0.5], [1e20]], (3, 3001)), bits,
                   rng.normal(size=(3, 3001)) * scale]
        assert 3001 < block < 2 * 3001 and 2 * block < 3 * 3001
        write_table(str(tmp_path / "new.csv"), serialize.POINTS_HEADER, columns)
        _frozen_write_table(str(tmp_path / "old.csv"), serialize.POINTS_HEADER,
                            [np.ravel(c) for c in columns])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
