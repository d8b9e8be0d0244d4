import csv
import json

import numpy as np
import pytest

from ellcm.calogero import CMConfig, PhasePoint
from ellcm.cli import main, parse_complex
from ellcm.elliptic import TorusModulus, wp
from ellcm.flow import TIGHT
from ellcm.monodromy import (DET_RESIDUAL_BOUND, POLE_LOOP_SEGMENTS,
                             cubic_relation_residual, isomonodromy_drift,
                             monodromy_data)
from ellcm.painleve import elliptic_to_rational


def run(argv, out=None):
    if out is not None:
        argv = argv + ["--out", str(out)]
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def given(tmp_path, via, key, value):
    """The arguments that set ``key``: the flag, or a config file."""
    if via == "flag":
        return [f"--{key}", value]
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {value}\n")
    return ["--config", str(conf)]


def without(argv, flag):
    """argv with the flag and its value taken out."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


#: The README's monodromy report without --drift.
MONODROMY = ["monodromy", "--n", "2", "--g", "0.35", "--tau", "1.0i",
             "--q", "0.11+0.03i,0.52-0.07i", "--p", "0.31,-0.45"]

#: An isospectral flow whose momenta have a nonzero sum.
UNPROJECTED = ["flow", "isospectral", "--n", "2", "--g", "1", "--tau", "1.0i",
               "--q", "0.1,0.55", "--p", "0.2,0.4", "--t-end", "0.1",
               "--samples", "1"]


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1.0i") == 1j
        assert parse_complex("0.3") == 0.3
        assert parse_complex("0.2+0.4i") == 0.2 + 0.4j
        assert parse_complex("-i") == -1j
        assert parse_complex("1e-3-2i") == 1e-3 - 2j


class TestEval:
    def test_wp_round_trip(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["eval", "wp", "--z", "0.3", "--tau", "1.0i"], out) == 0
        row = read_csv(out)[0]
        assert row["schema"] == "1"
        got = complex(float(row["value_re"]), float(row["value_im"]))
        assert got == wp(0.3, TorusModulus(1j))  # 17 digits round-trip

    def test_theta1_zero(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["eval", "theta1", "--z", "0", "--tau", "1.0i"], out) == 0
        row = read_csv(out)[0]
        assert float(row["value_re"]) == 0.0
        assert float(row["value_im"]) == 0.0

    def test_pole_exit_code(self, capsys):
        assert main(["eval", "wp", "--z", "1+1i", "--tau", "1.0i"]) == 2
        assert "lattice" in capsys.readouterr().err

    @pytest.mark.parametrize("tau, word", [("500i", "overflows"),
                                           ("1000i", "underflows")])
    def test_series_range_exit_code(self, capsys, tau, word):
        assert main(["eval", "wp", "--z", "0.3+230i", "--tau", tau]) == 2
        assert word in capsys.readouterr().err

    def test_triple_product_range_exit_code(self, capsys):
        # theta1 has a value here, the triple product leaves the double range
        point = ["--z=-1.4488323930057172+0.0032617019776511763i",
                 "--tau", "0.003i"]
        assert main(["eval", "theta1", *point]) == 0
        assert main(["eval", "theta1-product", *point]) == 2
        assert "evaluation error" in capsys.readouterr().err

    def test_lattice_oracle_row_budget(self, capsys):
        """Past its row budget the oracle refuses (exit 2) instead of
        allocating rows without bound as Im tau falls."""
        assert main(["eval", "wp-lattice-oracle", "--z", "0.3",
                     "--tau", "6e-6i"]) == 2
        assert "rows, more than 2000000" in capsys.readouterr().err

    def test_unknown_function(self):
        assert main(["eval", "nope", "--z", "1", "--tau", "1.0i"]) == 1

    def test_lame_needs_u(self):
        assert main(["eval", "lame-x", "--z", "0.3", "--tau", "1.0i"]) == 1

    def test_json_format(self, tmp_path):
        out = tmp_path / "row.json"
        assert run(["eval", "rho", "--z", "0.2+0.1i", "--tau", "0.9i",
                    "--format", "json"], out) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert len(payload["value"]) == 2


class TestVerify:
    def test_suite_passes(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["verify", "lame-identities", "--seed", "7",
                    "--count", "10"], out) == 0
        rows = read_csv(out)
        assert len(rows) == 30  # 3 identities x 10 points
        assert all(r["status"] == "pass" for r in rows)
        assert all(float(r["residual"]) < 1e-9 for r in rows)

    def test_seed_only_on_verify(self):
        assert main(["eval", "wp", "--z", "0.3", "--tau", "1.0i",
                     "--seed", "7"]) == 1

    def test_unknown_suite(self):
        assert main(["verify", "bogus"]) == 1

    def test_json_serializable_across_suites(self, tmp_path):
        # residuals produced by numpy reductions must serialize natively
        for suite in ("quasi-periodicity", "hamilton-consistency"):
            out = tmp_path / f"{suite}.json"
            assert run(["verify", suite, "--count", "2", "--format",
                        "json"], out) == 0
            payload = json.loads(out.read_text())
            assert payload["all_passed"] is True

    def test_monodromy_suite_reports_drift(self, tmp_path):
        out = tmp_path / "v.json"
        assert run(["verify", "monodromy", "--format", "json"], out) == 0
        payload = json.loads(out.read_text())
        names = {c["name"] for c in payload["checks"]}
        assert any(n.startswith("cubic") for n in names)
        assert any(n.startswith("drift") for n in names)
        assert payload["all_passed"]


class TestFlow:
    def test_isospectral_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["flow", "isospectral", "--n", "2", "--g", "1",
                    "--tau", "1.0i", "--q", "0.1,0.55", "--p", "0.2,-0.2",
                    "--t-end", "1.0"], out) == 0
        rows = read_csv(out)
        times = [float(r["time_re"]) for r in rows]
        assert times == sorted(times) and times[-1] == 1.0
        h0 = complex(float(rows[0]["H_re"]), float(rows[0]["H_im"]))
        h1 = complex(float(rows[-1]["H_re"]), float(rows[-1]["H_im"]))
        assert abs(h1 - h0) < 1e-8

    def test_painleve_scalar_free_is_linear(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["flow", "painleve-scalar", "--alpha", "0,0,0,0",
                    "--tau", "1.0i", "--tau-end", "1.2i",
                    "--q", "0.3", "--p", "0.4"], out) == 0
        rows = read_csv(out)
        qs = [complex(float(r["q0_re"]), float(r["q0_im"])) for r in rows]
        taus = [complex(float(r["tau_re"]), float(r["tau_im"])) for r in rows]
        slope0 = (qs[1] - qs[0]) / (taus[1] - taus[0])
        for i in range(2, len(qs)):
            slope = (qs[i] - qs[0]) / (taus[i] - taus[0])
            assert abs(slope - slope0) < 1e-9

    def test_path_leaves_upper_half_plane(self, capsys):
        code = main(["flow", "isomonodromic", "--n", "2", "--g", "1",
                     "--tau", "1.0i", "--tau-end", "0.2-0.1i",
                     "--q", "0.1,0.55", "--p", "0.2,-0.2"])
        assert code == 3

    def test_json_schema(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run(["flow", "isomonodromic", "--n", "2", "--g", "0.5",
                    "--tau", "1.0i", "--tau-end", "0.05+1.0i",
                    "--q", "0.1,0.55", "--p", "0.2,-0.2",
                    "--format", "json"], out) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "isomonodromic"
        assert payload["n"] == 2
        assert len(payload["g"]) == 2
        assert isinstance(payload["tau"][0], list)  # per-sample tau array
        sample = payload["samples"][0]
        assert set(sample) == {"time", "q", "p", "H"}
        assert len(sample["q"]) == 2 and len(sample["q"][0]) == 2
        d = payload["diagnostics"]
        steps = d["steps_accepted"] + d["steps_rejected"]
        assert d["rhs_evals"] == 6 * steps + 1

    def test_isomonodromic_n8_matches_scalar_pairs(self, tmp_path,
                                                  monkeypatch):
        """An n = 8 tau-flow end to end on the array pair path: not
        truncated, its H column as on the scalar pair loops."""
        from ellcm import calogero
        argv = ["flow", "isomonodromic", "--n", "8", "--g", "0.5",
                "--tau", "1.0i", "--tau-end", "0.02+1.05i",
                "--q", "0,0.13+0.02i,0.25-0.01i,0.37+0.03i,0.5,0.62-0.02i,"
                       "0.75+0.01i,0.88",
                "--p", "0.3,-0.25,0.2,-0.3,0.28,-0.22,0.3,-0.31"]
        hs = []
        for thr, name in ((calogero.ARRAY_PAIRS_FROM, "a.csv"),
                          (10**9, "s.csv")):
            monkeypatch.setattr(calogero, "ARRAY_PAIRS_FROM", thr)
            assert run(argv, tmp_path / name) == 0
            rows = read_csv(tmp_path / name)
            assert len(rows) == 17
            hs.append(np.array([complex(float(r["H_re"]), float(r["H_im"]))
                                for r in rows]))
        assert np.max(np.abs(hs[0] - hs[1]) / np.abs(hs[1])) <= 1e-12

    def test_truncated_flow_partial_file(self, tmp_path, capsys):
        # a collision-stalled configuration: partial file plus exit 3
        out = tmp_path / "partial.csv"
        code = run(["flow", "isospectral", "--n", "2", "--g", "5e-6",
                    "--tau", "1.0i", "--q", "0.499975,0.500025",
                    "--p", "0.1,-0.1", "--t-end", "1.0"], out)
        assert code == 3
        assert "truncated" in capsys.readouterr().err
        assert len(read_csv(out)) >= 1  # header + initial sample present

    def test_determinism(self, tmp_path):
        argv = ["flow", "isospectral", "--n", "2", "--g", "1",
                "--tau", "1.0i", "--q", "0.1,0.55", "--p", "0.2,-0.2",
                "--t-end", "0.5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(argv, a) == 0 and run(argv, b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMonodromyCommand:
    def test_g0_report(self, tmp_path):
        out = tmp_path / "mono.json"
        assert run(["monodromy", "--n", "2", "--g", "0", "--tau", "1.0i",
                    "--q", "0.13,0.61", "--p", "0.37,-0.52"], out) == 0
        payload = json.loads(out.read_text())
        m1 = np.array([complex(re, im) for re, im in payload["M1"]]
                      ).reshape(2, 2)
        expect = np.diag(np.exp(np.array([0.37, -0.52])))
        assert np.max(np.abs(m1 - expect)) < 1e-8
        assert payload["cubic_residual"] < 1e-8

    def test_generic_report_with_drift(self, tmp_path):
        out = tmp_path / "mono.json"
        assert run(["monodromy", "--n", "2", "--g", "0.35", "--tau", "1.0i",
                    "--q", "0.11+0.03i,0.52-0.07i",
                    "--p", "0.31-0.12i,-0.45+0.22i",
                    "--drift", "0.01"], out) == 0
        payload = json.loads(out.read_text())
        assert payload["cubic_residual"] < 1e-5
        assert payload["drift"]["spectral_drift"] < 1e-5
        assert len(payload["spectra"]["M0"]) == 2

    def test_drift_uses_the_report_radius(self, tmp_path):
        # at tau = 0.06i the loop of radius 0.1 would enclose tau: the
        # report and its drift take the radius the library derives, and
        # the drift starts from the report's triple
        out = tmp_path / "mono.json"
        assert run(["monodromy", "--n", "2", "--g", "0.35", "--tau", "0.06i",
                    "--q", "0.11+0.01i,0.52-0.02i", "--p", "0.31,-0.45",
                    "--drift", "0.01"], out) == 0
        payload = json.loads(out.read_text())
        cfg = CMConfig(2, 0.35, TorusModulus(0.06j))
        ph = PhasePoint([0.11 + 0.01j, 0.52 - 0.02j], [0.31, -0.45])
        md = monodromy_data(cfg, ph, TIGHT)
        assert payload["cubic_residual"] == cubic_relation_residual(md)
        assert payload["drift"]["spectral_drift"] == isomonodromy_drift(
            cfg, ph, 0.06j, 0.01, TIGHT, md)

    @pytest.mark.parametrize("argv, tau, shortest", [
        (["--tau", "0.0015i", "--q", "0.11+0.0003i,0.52-0.0002i"],
         0.0015j, "0.0015"),
        (["--tau", "0.012i", "--q", "0.11+0.003i,0.52-0.004i",
          "--drift=-0.01i"], 0.012j - 0.01j, "0.002"),
    ], ids=["default-radius", "drift-end"])
    def test_loop_enclosing_a_lattice_point(self, tmp_path, capsys,
                                            monkeypatch, argv, tau, shortest):
        """Where every pole loop of radius above 1e-3 would reach another
        lattice point, at tau or at the end of the drift step, the command
        is a usage error raised before any transport."""
        import ellcm.monodromy as mono

        def failing(*args, **kwargs):
            raise AssertionError("transported before the radius check")

        monkeypatch.setattr(mono, "_transport_paths", failing)
        out = tmp_path / "report.json"
        argv = ["monodromy", "--n", "2", "--g", "0.35", *argv,
                "--p", "0.31,-0.45"]
        assert run(argv, out) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"usage error: no pole loop fits at tau = {tau}: its radius, "
            f"half the shortest period {shortest}, must be above 1e-3\n")

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_radius_is_not_an_option(self, tmp_path, capsys, via):
        """The pole loop's radius is the library's choice: --radius and its
        config key are usage errors."""
        out = tmp_path / "report.json"
        assert run(MONODROMY + given(tmp_path, via, "radius", "0.05"),
                   out) == 1
        assert not out.exists()
        assert ("unrecognized arguments: --radius 0.05" if via == "flag"
                else "unknown config key 'radius'") in capsys.readouterr().err

    def test_det_residuals(self, tmp_path):
        # the README example; the three determinant identities are exact
        out = tmp_path / "mono.json"
        assert run(["monodromy", "--n", "2", "--g", "0.35", "--tau", "1.0i",
                    "--q", "0.11+0.03i,0.52-0.07i", "--p", "0.31,-0.45",
                    "--drift", "0.01"], out) == 0
        payload = json.loads(out.read_text())
        residuals = payload["det_residuals"]
        assert set(residuals) == {"M0", "M1", "Mtau"}
        assert all(0.0 <= r <= 1e-12 for r in residuals.values())
        assert payload["schema"] == 1

    def test_transport_block(self, tmp_path):
        """The report carries what the triple's refinement loop did, per
        cycle and for its L batches."""
        out = tmp_path / "mono.json"
        assert run(MONODROMY, out) == 0
        block = json.loads(out.read_text())["transport"]
        cfg = CMConfig(2, 0.35, TorusModulus(1j))
        ph = PhasePoint([0.11 + 0.03j, 0.52 - 0.07j], [0.31, -0.45])
        assert block == monodromy_data(cfg, ph, TIGHT).transport
        assert [block[c]["segments"] for c in ("pole", "A", "B")] == [
            POLE_LOOP_SEGMENTS + 1, 1, 1]
        for cycle in ("pole", "A", "B"):
            stats = block[cycle]
            assert stats["max_panels"] == 4 * 2 ** (stats["levels"] - 1)
            assert 0.0 <= stats["max_diff_over_tol"] <= 1.0
        assert block["l_batches"] == 3 and block["l_nodes"] == 3036

    def test_broken_determinant_identity(self, tmp_path, capsys):
        """At tau = 17.3+0.8i the B cycle is 17 cells long and breaks
        det Mtau: the report is written, and one stderr line names the
        identity, exit 3.  The README report with --drift passes."""
        out = tmp_path / "mono.json"
        argv = MONODROMY[:MONODROMY.index("--tau") + 1] + [
            "17.3+0.8i"] + MONODROMY[MONODROMY.index("--tau") + 2:]
        assert run(argv, out) == 3
        residual = json.loads(out.read_text())["det_residuals"]["Mtau"]
        assert residual > DET_RESIDUAL_BOUND
        assert capsys.readouterr().err == (
            f"monodromy report fails the det Mtau identity: relative "
            f"residual {residual:.3e} above {DET_RESIDUAL_BOUND:g}\n")
        assert run(MONODROMY + ["--drift", "0.01"], out) == 0
        assert capsys.readouterr().err == ""

class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("z = 0.3\ntau = 1.0i  # comment\n")
        out = tmp_path / "row.csv"
        assert run(["eval", "wp", "--config", str(conf)], out) == 0
        row = read_csv(out)[0]
        assert float(row["z_re"]) == 0.3

    def test_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("z = 0.3\ntau = 1.0i\n")
        out = tmp_path / "row.csv"
        assert run(["eval", "wp", "--config", str(conf), "--z", "0.4"],
                   out) == 0
        assert float(read_csv(out)[0]["z_re"]) == 0.4

    def test_config_seed_reaches_suite(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 7\n")
        out = tmp_path / "conf.json"
        assert run(["verify", "lame-identities", "--config", str(conf),
                    "--count", "5", "--format", "json"], out) == 0
        assert json.loads(out.read_text())["seed"] == 7
        flag = tmp_path / "flag.json"
        assert run(["verify", "lame-identities", "--seed", "7",
                    "--count", "5", "--format", "json"], flag) == 0
        assert out.read_text() == flag.read_text()

    def test_config_integers_are_converted(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("count = 5\nn = 2\n")
        out = tmp_path / "conf.csv"
        assert run(["verify", "quasi-periodicity", "--config", str(conf)],
                   out) == 0
        flag = tmp_path / "flag.csv"
        assert run(["verify", "quasi-periodicity", "--count", "5",
                    "--n", "2"], flag) == 0
        assert out.read_text() == flag.read_text()

    @pytest.mark.parametrize("line", ["count = five", "format = xml"])
    def test_config_bad_value_is_usage_error(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert main(["verify", "lame-identities", "--config",
                     str(conf)]) == 1
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("value, flag, projected", [
        ("true", False, True), ("false", True, True), ("false", False, False),
    ], ids=["config-true", "flag-wins", "config-false"])
    def test_config_switch(self, tmp_path, value, flag, projected):
        """traceless = true projects the momenta as --traceless does, and
        the flag wins over the config file."""
        argv = UNPROJECTED + given(tmp_path, "config", "traceless", value)
        out = tmp_path / "conf.csv"
        assert run(argv + ["--traceless"] * flag, out) == 0
        ref = tmp_path / "ref.csv"
        assert run(UNPROJECTED + ["--traceless"] * projected, ref) == 0
        assert out.read_bytes() == ref.read_bytes()
        p0 = float(read_csv(out)[0]["p0_re"])
        assert p0 == (pytest.approx(-0.1) if projected else 0.2)

    def test_config_switch_takes_true_or_false(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = UNPROJECTED + given(tmp_path, "config", "traceless", "banana")
        assert run(argv, out) == 1
        assert not out.exists()
        assert "config key 'traceless'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus = 1\n")
        assert main(["eval", "wp", "--config", str(conf)]) == 1
        assert "unknown config key" in capsys.readouterr().err


class TestSymmetryAndMap:
    def test_landin(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["symmetry", "landin", "--alpha", "0.1,0.2,0.2,0.1"],
                   out) == 0
        row = read_csv(out)[0]
        assert row["applicable"] == "true"
        assert float(row["alpha0_re"]) == 0.4
        assert float(row["alpha2_re"]) == 0.0

    def test_landin_not_applicable(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["symmetry", "landin", "--alpha", "0.1,0.2,0.3,0.4"],
                   out) == 0
        assert read_csv(out)[0]["applicable"] == "false"

    def test_scaling(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["symmetry", "scaling", "--alpha", "0.1,0.2,0.3,0.4",
                    "--q", "0.3", "--p", "0.2", "--tau", "1.0i",
                    "--j", "2"], out) == 0
        row = read_csv(out)[0]
        assert float(row["q_re"]) == 0.6
        assert float(row["tau_im"]) == 2.0
        assert float(row["alpha0_re"]) == pytest.approx(0.4)

    def test_s4_shift(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["symmetry", "s4-shift", "--q", "0.3", "--tau", "1.0i",
                    "--a", "3"], out) == 0
        row = read_csv(out)[0]
        assert float(row["q_im"]) == 0.5

    def test_s4_shift_bad_index(self, capsys):
        assert main(["symmetry", "s4-shift", "--q", "0.3", "--tau", "1.0i",
                     "--a", "4"]) == 1
        assert capsys.readouterr().err == (
            "usage error: half-period index 4 out of range 0..3\n")

    def test_map(self, tmp_path):
        out = tmp_path / "row.csv"
        assert run(["map", "--q", "0.25+0.1i", "--tau", "0.9i"], out) == 0
        row = read_csv(out)[0]
        y, t = elliptic_to_rational(0.25 + 0.1j, 0.9j)
        assert complex(float(row["y_re"]), float(row["y_im"])) == y
        assert complex(float(row["t_re"]), float(row["t_im"])) == t


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_bad_flag(self):
        assert main(["eval", "wp", "--zzz", "1"]) == 1

    @pytest.mark.parametrize("command", [
        ["symmetry", "landin", "--alpha", "0.1,0.2,0.2,0.1"],
        ["monodromy", "--n", "2", "--g", "0", "--tau", "1.0i",
         "--q", "0.1,0.5", "--p", "0,0"],
    ], ids=["symmetry", "monodromy"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_format_only_where_read(self, tmp_path, capsys, command, via):
        """symmetry always writes CSV and monodromy JSON: --format, which
        they would ignore, is a usage error there, as is its config key."""
        out = tmp_path / "out"
        assert run(command + given(tmp_path, via, "format", "json"), out) == 1
        assert not out.exists()
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["lame-identities", "theta-heat",
                                       "symmetry-maps"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_n_only_where_read(self, tmp_path, capsys, suite, via):
        """--n, which these suites would ignore, is a usage error there, as
        is its config key."""
        out = tmp_path / "out"
        argv = ["verify", suite, "--count", "1"] + given(tmp_path, via, "n",
                                                         "7")
        assert run(argv, out) == 1
        assert not out.exists()
        assert f"suite {suite!r} takes no n" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        (without(UNPROJECTED, "--samples"), "samples", "1.5"),
        (["monodromy", "--n", "2", "--g", "0", "--tau", "1.0i",
          "--q", "0.1,0.5", "--p", "0,0"], "drift", "abc"),
        (["eval", "wp", "--z", "0.3"], "tau", "1.0q"),
        (without(UNPROJECTED, "--q"), "q", "0.1,x"),
        (without(UNPROJECTED, "--t-end"), "t-end", "nan"),
    ], ids=["samples", "drift", "tau", "q", "t-end-nan"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_malformed_value(self, tmp_path, capsys, command, key, value,
                             via):
        """A value its option's converter rejects is a usage error that
        names the option, by flag and by config, and writes no file."""
        out = tmp_path / "out"
        assert run(command + given(tmp_path, via, key, value), out) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert (f"argument --{key}: " if via == "flag"
                else f"config key {key!r}: ") in err

    @pytest.mark.parametrize("command, key", [
        (["verify", "lame-identities"], "count"),
        (["verify", "zero-curvature"], "n"),
        (without(UNPROJECTED, "--samples"), "samples"),
        (["flow", "painleve-scalar", "--alpha", "0.1,0,0,0", "--tau", "1.0i",
          "--tau-end", "1.2i", "--q", "0.3", "--p", "0.4"], "samples"),
    ], ids=["count", "n", "samples", "painleve-samples"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_count_below_one(self, tmp_path, capsys, command, key, value,
                             via):
        """A count below 1 is a usage error, by flag and by config, and
        writes no file: the library raises UsageError for it."""
        out = tmp_path / "out"
        assert run(command + given(tmp_path, via, key, value), out) == 1
        assert not out.exists()
        assert (f"usage error: {key} must be at least 1, got {value}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, key, value, message", [
        (UNPROJECTED, "rel-tol", "0", "tolerances must be positive"),
        (UNPROJECTED, "abs-tol", "-1.5", "tolerances must be positive"),
        (UNPROJECTED, "step", "0", "initial_step must be positive"),
        (MONODROMY, "rel-tol", "-1", "tolerances must be positive"),
        (MONODROMY, "drift", "0.5", "|dtau| must be at most 1e-2"),
        (MONODROMY, "drift", "0.008+0.008i", "|dtau| must be at most 1e-2"),
    ], ids=["flow-rel-tol", "flow-abs-tol", "flow-step", "rel-tol",
            "drift", "drift-complex"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_of_range(self, tmp_path, capsys, monkeypatch, command, key,
                          value, message, via):
        """A value outside the range the library checks is a usage error
        with the library's message, raised before any transport, and
        writes no file."""
        import ellcm.monodromy as mono

        def failing(*args, **kwargs):
            raise AssertionError("transported before the range check")

        monkeypatch.setattr(mono, "_transport_paths", failing)
        out = tmp_path / "out"
        assert run(command + given(tmp_path, via, key, value), out) == 1
        assert not out.exists()
        assert f"usage error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        (without(UNPROJECTED, "--t-end") + ["--t-end", "nan"],
         "argument --t-end: 'nan' is not a finite number"),
        (["flow", "isomonodromic", "--n", "2", "--g", "0.5", "--tau", "1.0i",
          "--tau-end", "nan+1i", "--q", "0.1,0.55", "--p", "0.2,-0.2"],
         "argument --tau-end: 'nan+1i' is not a finite number"),
        (UNPROJECTED + ["--rel-tol", "nan"],
         "argument --rel-tol: 'nan' is not a finite number"),
        (UNPROJECTED + ["--step", "nan"],
         "argument --step: 'nan' is not a finite number"),
        (without(UNPROJECTED, "--g") + ["--g", "nan"],
         "argument --g: 'nan' is not a finite number"),
        (["monodromy", "--n", "2", "--g", "0.35", "--tau", "1.0i",
          "--q", "nan,0.52-0.07i", "--p", "0.31,-0.45"],
         "argument --q: 'nan' is not a finite number"),
        (["eval", "wp", "--z", "nan", "--tau", "1.0i"],
         "argument --z: 'nan' is not a finite number"),
        (["eval", "wp", "--z", "0.3", "--tau", "nan+1i"],
         "argument --tau: 'nan+1i' is not a finite number"),
        (["eval", "wp", "--z", "inf", "--tau", "1.0i"],
         "argument --z: 'inf' is not a finite number"),
        (["eval", "wp", "--z", "0.3", "--tau", "1e999i"],
         "argument --tau: '1e999i' is not a finite number"),
        (["map", "--q", "nan", "--tau", "0.9i"],
         "argument --q: 'nan' is not a finite number"),
        (MONODROMY + ["--drift", "0"],
         "|dtau| must be at most 1e-2 and nonzero"),
        (without(UNPROJECTED, "--t-end") + ["--t-end", "0"],
         "empty time span"),
    ], ids=["t-end", "tau-end", "rel-tol", "step", "g", "monodromy-q",
            "z", "tau", "z-inf", "tau-overflow", "map-q", "drift-zero",
            "t-end-zero"])
    def test_non_finite_or_empty(self, tmp_path, capsys, monkeypatch,
                                 command, message):
        """A NaN or infinite number, a zero drift step and an empty time
        span are usage errors, raised before any work, that write
        nothing."""
        import ellcm.flow as flow
        import ellcm.monodromy as mono

        def failing(*args, **kwargs):
            raise AssertionError("worked before the check")

        monkeypatch.setattr(mono, "_transport_paths", failing)
        monkeypatch.setattr(flow, "integrate_segment", failing)
        out = tmp_path / "out"
        assert run(command, out) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"usage error: {message}" in captured.err

    @pytest.mark.parametrize("argv, spelled", [
        (["eval", "wp", "--z", "-0.1+0.2i", "--tau", "1.0i"], "--z"),
        (["eval", "wp", "--z", "-1e-1", "--tau", "1.0i"], "--z"),
        (["eval", "wp", "--z", "-.25+0.1i", "--tau", "1.0i"], "--z"),
        (without(UNPROJECTED, "--q") + ["--q", "-0.1,0.55"], "--q"),
        (["symmetry", "landin", "--alpha", "-0.1,0.2,0.2,-0.1"], "--alpha"),
    ], ids=["complex", "exponent", "leading-dot", "list", "alpha"])
    def test_negative_number_value(self, tmp_path, argv, spelled):
        """A value that starts with '-' and a digit or '.' is read as the
        option's value, as its '=' spelling is."""
        i = argv.index(spelled)
        joined = argv[:i] + [f"{spelled}={argv[i + 1]}"] + argv[i + 2:]
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert run(argv, out) == 0
        assert run(joined, ref) == 0
        assert out.read_text() == ref.read_text()

    @pytest.mark.parametrize("command", [
        without(UNPROJECTED, "--n"),
        without(MONODROMY, "--n"),
        ["verify", "monodromy"],
    ], ids=["flow", "monodromy", "verify"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_body_count_below_one(self, tmp_path, capsys, command, n):
        out = tmp_path / "out"
        assert run(command + ["--n", n], out) == 1
        assert not out.exists()
        assert (f"usage error: n must be at least 1, got {n}\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, message", [
        (UNPROJECTED + ["--q", "0.1"], "--q and --p must each have 2"),
        (["monodromy", "--n", "2", "--g", "0", "--tau", "1.0i",
          "--q", "0.1,0.5", "--p", "0,0,0"], "--q and --p must each have 2"),
        (["symmetry", "landin", "--alpha", "0.1,0.2,0.2"],
         "--alpha needs exactly four"),
        (["flow", "painleve-scalar", "--alpha", "0.1,0,0", "--tau", "1.0i",
          "--tau-end", "1.2i", "--q", "0.3", "--p", "0.4"],
         "--alpha needs exactly four"),
        (["flow", "painleve-scalar", "--alpha", "0.1,0,0,0", "--tau", "1.0i",
          "--tau-end", "1.2i", "--q", "0.1,0.2", "--p", "0.4"],
         "--q and --p must each have one"),
    ], ids=["flow-q", "monodromy-p", "landin-alpha", "painleve-alpha",
            "painleve-q"])
    def test_wrong_entry_count(self, tmp_path, capsys, command, message):
        out = tmp_path / "out"
        assert run(command, out) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err
