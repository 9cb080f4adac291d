import dataclasses
import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

import wqsim
from wqsim import (AtomParams, InvalidGrid, NetworkConfig, ParseError, PRESETS,
                   UnknownPreset, VerificationCheck, VerificationReport,
                   parse_config_text, format_config)
from wqsim.cli import main
from wqsim.model import default_halfwidth
from wqsim.runio import RunSettings, fmt, parse_config_file, write_csv

GOOD = """\
# two chirally coupled atoms
omega_a = 50.0
label = demo
[atom.1]
z = 0.1
gamma_l = 0.25
gamma_r = 0.5
[atom.2]
z = 0.2
gamma_l = 0.25
gamma_r = 0.5
[run]
t_end = 0.5
dt = 0.0015625
k_points = 41
k_halfwidth = 8.0
"""


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COUPLING = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def plans(draw):
    """(config, settings) of one or two atoms, with any run fields set."""
    z1 = draw(POSITIVE)
    atoms = [AtomParams(z1, draw(COUPLING), draw(COUPLING))]
    if draw(st.booleans()):
        atoms.append(AtomParams(
            draw(st.floats(min_value=z1, exclude_min=True,
                           allow_infinity=False)),
            draw(COUPLING), draw(COUPLING)))
    # any text NetworkConfig takes as a label: every one must round-trip
    try:
        config = NetworkConfig(atoms=tuple(atoms), omega_a=draw(POSITIVE),
                               label=draw(st.text()))
    except ValueError:
        reject()
    settings = RunSettings(
        t_end=draw(st.none() | POSITIVE), dt=draw(st.none() | POSITIVE),
        k_points=draw(st.none() | st.integers(2, 10**9)),
        k_halfwidth=draw(st.none() | st.floats(allow_nan=False,
                                               allow_infinity=False)))
    return config, settings


class TestConfigParsing:
    @given(plan=plans())
    def test_format_parse_round_trip(self, plan):
        config, settings = plan
        assert parse_config_text(format_config(config, settings)) == plan

    @pytest.mark.parametrize("text, line, what", [
        (GOOD.replace("label = demo", "label = demo\nomega_a = 20"), 4,
         "'omega_a'"),
        (GOOD.replace("z = 0.1", "z = 0.1\nz = 0.3"), 6, "'z'"),
        (GOOD + "dt = 0.001\n", 17, "'dt'"),
        (GOOD + "[atom.1]\nz = 0.3\n", 17, r"section \[atom.1\]"),
    ], ids=["top-level", "atom", "run", "section"])
    def test_repeats_refused(self, text, line, what):
        with pytest.raises(ParseError, match=rf":{line}: repeated .*{what}"):
            parse_config_text(text)

    def test_good_round_trip(self):
        cfg, run = parse_config_text(GOOD)
        assert cfg.omega_a == 50.0
        assert cfg.label == "demo"
        assert len(cfg.atoms) == 2
        assert cfg.atoms[1].gamma_r == 0.5
        assert run.k_points == 41
        text = format_config(cfg, run)
        cfg2, run2 = parse_config_text(text)
        assert cfg2 == cfg
        assert run2 == run

    def test_missing_omega_a_named(self):
        bad = GOOD.replace("omega_a = 50.0\n", "")
        with pytest.raises(ParseError, match="omega_a"):
            parse_config_text(bad)

    def test_unknown_field_has_line_number(self):
        bad = GOOD.replace("z = 0.1", "zz = 0.1")
        with pytest.raises(ParseError, match=r":5: .*zz"):
            parse_config_text(bad)

    def test_non_numeric_value(self):
        bad = GOOD.replace("z = 0.1", "z = abc")
        with pytest.raises(ParseError, match="abc"):
            parse_config_text(bad)

    def test_non_numeric_top_level_value_names_its_line(self):
        bad = GOOD.replace("omega_a = 50.0", "omega_a = fifty")
        with pytest.raises(ParseError, match=r"^x\.cfg:2: field 'omega_a' "
                           r"is not a number: 'fifty'$"):
            parse_config_text(bad, origin="x.cfg")

    @pytest.mark.parametrize("label", [
        "x\n[run]\nt_end = 99", "a\nresult.t_final = 0", "run#2", "run ",
        " run", "a\r", "a\u2028b", "a\x1cb"])
    def test_label_that_breaks_its_line_refused(self, label):
        # the config and the manifest hold the label on one line, and the
        # parser cuts a line at '#' and strips it
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),), omega_a=50.0,
                          label=label)

    def test_missing_atom_section(self):
        with pytest.raises(ParseError, match=r"atom\.1"):
            parse_config_text("omega_a = 50.0\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="mirror"):
            parse_config_text("omega_a = 50\n[mirror]\nz = 0\n")

    def test_fractional_integer_field_named(self):
        for value in ("41.7", "inf"):
            bad = GOOD.replace("k_points = 41", f"k_points = {value}")
            with pytest.raises(ParseError, match=f":15: .*'k_points'.*'{value}'"):
                parse_config_text(bad)
        _, run = parse_config_text(GOOD.replace("k_points = 41", "k_points = 1e3"))
        assert run.k_points == 1000 and isinstance(run.k_points, int)

    def test_invalid_geometry_surfaces(self):
        from wqsim import InvalidGeometry
        bad = GOOD.replace("z = 0.2", "z = 0.05")
        with pytest.raises(InvalidGeometry):
            parse_config_text(bad)

    def test_preset_fidelity_round_trip(self):
        for name, preset in PRESETS.items():
            text = format_config(preset.config, preset.settings)
            cfg, run = parse_config_text(text, origin=name)
            assert cfg.atoms == preset.config.atoms, name
            assert cfg.omega_a == preset.config.omega_a
            assert run == preset.settings


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(7)
        col = rng.standard_normal(50)
        p1 = write_csv(tmp_path / "a.csv", ["t", "v"], [np.arange(50.0), col])
        p2 = write_csv(tmp_path / "b.csv", ["t", "v"], [np.arange(50.0), col])
        assert p1.read_bytes() == p2.read_bytes()

    def test_lossless_round_trip(self, tmp_path):
        vals = np.array([1.0 / 3.0, np.pi, 1e-17, 123456.789012345678])
        p = write_csv(tmp_path / "c.csv", ["v"], [vals])
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        assert np.array_equal(back, vals)

    def test_complex_column_split(self, tmp_path):
        vals = np.array([1.0 / 3.0 - 2j * np.pi, -0.0 + 1e-17j, 5e-324j])
        p = write_csv(tmp_path / "z.csv", ["t", "c"], [np.arange(3.0), vals])
        assert p.read_text().splitlines()[0] == "t,c_re,c_im"
        back = np.loadtxt(p, delimiter=",", skiprows=1)
        assert back.shape == (3, 3)
        assert np.array_equal(back[:, 1] + 1j * back[:, 2], vals)

    def test_special_values_bytes(self, tmp_path):
        vals = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324,
                         -1.7976931348623157e308, 0.1, 1e16, 2.0 ** 53 + 2])
        p = write_csv(tmp_path / "s.csv", ["v", "w"], [vals, vals[::-1]])
        want = ("v,w\n" + "".join(f"{fmt(a)},{fmt(b)}\n"
                                  for a, b in zip(vals, vals[::-1])))
        assert p.read_bytes() == want.encode()
        assert p.read_text().splitlines()[1:7] == [
            "inf,9007199254740994", "-inf,10000000000000000",
            "nan,0.10000000000000001", "-0,-1.7976931348623157e+308",
            "0,4.9406564584124654e-324", "4.9406564584124654e-324,0"]

    def test_fmt_17_digits(self):
        assert float(fmt(np.pi)) == np.pi

    def test_preset_rerun_byte_identical(self, tmp_path):
        from wqsim import run_preset
        run_preset("fig4_dashed", tmp_path / "a")
        run_preset("fig4_dashed", tmp_path / "b")
        assert ((tmp_path / "a" / "cee.csv").read_bytes()
                == (tmp_path / "b" / "cee.csv").read_bytes())


@pytest.fixture(scope="module")
def small_cascade(tmp_path_factory):
    """fig2 at 258 modes, a count whose n - 1 has no divisor below 125."""
    out = tmp_path_factory.mktemp("cascade")
    wqsim.run_preset("fig2", out, t_end=0.5, k_points=258, k_halfwidth=20.0)
    return lambda name: np.genfromtxt(out / name, delimiter=",", names=True)


class TestCascadeFiles:
    def test_cascade_holds_one_checkpoint_matrix(self, tmp_path, monkeypatch):
        # traced memory as each checkpoint matrix is built: had the
        # pipeline kept the earlier ones, it would grow by one N x N
        # complex matrix per checkpoint
        import tracemalloc
        from wqsim import frequency
        n = 201
        symmetric, held = frequency._symmetric, []

        def traced(a, scale):
            held.append(tracemalloc.get_traced_memory()[0])
            return symmetric(a, scale)

        monkeypatch.setattr(frequency, "_symmetric", traced)
        tracemalloc.start()
        try:
            wqsim.run_preset("fig2", tmp_path, t_end=0.5, k_points=n,
                             k_halfwidth=20.0)
        finally:
            tracemalloc.stop()
        assert len(held) == 9
        assert max(held) - held[0] <= 0.5 * n * n * 16

    def test_norm_ledger_reads_the_population_record(self, small_cascade):
        norm, pop = small_cascade("norm.csv"), small_cascade("populations.csv")
        assert len(norm) == 9
        for row in norm:
            i = np.argmin(np.abs(pop["t"] - row["t"]))
            for col in ("pe1", "pe2", "cee_abs2"):
                assert row[col] == pop[col][i]
        np.testing.assert_array_equal(
            norm["total_norm"], norm["pe1"] + norm["pe2"] - norm["cee_abs2"]
            + norm["two_photon_norm"])

    def test_two_photon_grid_is_bounded_square_and_symmetric(self,
                                                             small_cascade):
        kk = small_cascade("two_photon.csv")
        n = math.isqrt(len(kk))
        assert n * n == len(kk) and n <= 126
        k1, k2 = kk["k1"].reshape(n, n), kk["k2"].reshape(n, n)
        np.testing.assert_array_equal(k1, k2.T)
        assert np.all(np.diff(k2[0]) > 0)
        ckk = kk["ckk_abs"].reshape(n, n)
        np.testing.assert_array_equal(ckk, ckk.T)


ONE_ATOM = """\
omega_a = 50.0
[atom.1]
z = 0.14137166941154069
gamma_l = 0.1
gamma_r = 0.3
[run]
t_end = 1.0
"""


class TestCli:
    def test_simulate_single_atom(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONE_ATOM)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "classify:" in captured
        for f in ("amplitudes.csv", "field_snapshot.csv", "norm.csv",
                  "manifest.txt"):
            assert (out / f).exists()

    def test_simulate_two_atom_cascade(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(GOOD)
        out = tmp_path / "out2"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "classify: TwoPhoton" in capsys.readouterr().out
        for f in ("cee.csv", "populations.csv", "spectra.csv",
                  "two_photon.csv", "norm.csv", "manifest.txt"):
            assert (out / f).exists()
        manifest = (out / "manifest.txt").read_text()
        assert "param.atom1.z = 0.1" in manifest
        assert "timestamp" in manifest

    def test_dt_too_large_is_surfaced(self, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(GOOD)
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "x"), "--dt", "0.05"])
        assert rc == 2
        assert "min(delay)/8" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        rc = main(["preset", "nope", "--out", "/tmp/wq-nope"])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_preset_run(self, tmp_path, capsys):
        rc = main(["preset", "fig4_dashed", "--out", str(tmp_path / "d")])
        assert rc == 0
        assert (tmp_path / "d" / "cee.csv").exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("omega_a = fifty\n[atom.1]\nz=0.1\n")
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "y")])
        assert rc == 2
        assert "fifty" in capsys.readouterr().err

    def test_verify_passing_scope_exit_zero(self, capsys):
        rc = main(["verify", "theorem4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out

    def test_verify_failing_scope_exit_nonzero(self, capsys, monkeypatch):
        # a scope whose report holds a failing check must carry a nonzero
        # exit status
        failing = VerificationReport("theorem3", [VerificationCheck(
            "forced failure", 1.0, 0.0, "<")])
        # the package re-exports the verify() function under the module's
        # name, so the module itself is fetched by its dotted path
        verify_module = importlib.import_module("wqsim.verify")
        monkeypatch.setitem(verify_module._SCOPE_FUNCS, "theorem3",
                            lambda: failing)
        rc = main(["verify", "theorem3"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out

    def test_check_verdict_follows_relation(self):
        def passed(measured, relation, bound):
            return VerificationCheck("c", measured, bound, relation).passed

        assert passed(1.0, "<", 2.0) and not passed(2.0, "<", 2.0)
        assert passed(2.0, ">=", 2.0) and not passed(1.0, ">=", 2.0)
        assert not passed(math.nan, "<", 2.0)
        assert not passed(math.nan, ">=", 2.0)
        # labels compare by value
        assert passed("DarkState", "==", "".join(["Dark", "State"]))
        assert not passed("DarkState", "==", "TwoPhoton")
        verify_module = importlib.import_module("wqsim.verify")
        dark = verify_module.SteadyStateLabel.DARK_STATE
        check = verify_module._check("c", dark, "==", dark)
        assert check.measured == "DarkState" and check.passed
        line = VerificationCheck("c", 1.0, 0.0, "<").line()
        assert line == "[FAIL] c: measured 1 < 0"

    @pytest.mark.parametrize("relation", ["<=", ">", "", "lt"])
    def test_check_refuses_an_unknown_relation(self, relation):
        with pytest.raises(ValueError, match=re.escape(repr(relation))):
            VerificationCheck("c", 1.0, 2.0, relation)

    def test_verify_unknown_scope(self, capsys):
        rc = main(["verify", "theoremX"])
        assert rc == 2

    def test_preset_plot_writes_svg(self, tmp_path):
        pytest.importorskip("matplotlib")
        rc = main(["preset", "fig4_dashed", "--out", str(tmp_path / "p"),
                   "--plot"])
        assert rc == 0
        assert (tmp_path / "p" / "cee.svg").exists()

    def test_scopes_pin_their_verdicts(self):
        # markov's one failure is the known fig2 line: the finite-delay
        # effect at fig2's delays (0.0287 against 0.02)
        verify_module = importlib.import_module("wqsim.verify")
        reports = {scope: verify_module.verify(scope) for scope in
                   ("theorem1", "theorem2", "theorem3", "markov")}
        verdicts = {scope: (len(r.checks) - r.n_failed, len(r.checks))
                    for scope, r in reports.items()}
        assert verdicts == {"theorem1": (4, 4), "theorem2": (7, 7),
                            "theorem3": (4, 4), "markov": (1, 2)}
        assert [c.name for c in reports["markov"].checks if not c.passed] \
            == ["finite-delay effect: max |c_ee - closed form| "
                "(fig2, gamma_RL max tau_j 0.125)"]

    def test_parser_names_come_from_their_owners(self, capsys):
        # --mode takes exactly the pipeline kinds, the preset and scope
        # helps list every preset and scope, and every preset's kind runs
        from wqsim.cli import build_parser
        from wqsim.presets import PIPELINES
        from wqsim.verify import SCOPES
        parser = build_parser()
        for kind in ("auto", *PIPELINES):
            args = parser.parse_args(["simulate", "--config", "c",
                                      "--out", "o", "--mode", kind])
            assert args.mode == kind
        with pytest.raises(SystemExit):
            parser.parse_args(["simulate", "--config", "c", "--out", "o",
                               "--mode", "oracle"])
        for command, names in (("preset", PRESETS), ("verify", SCOPES)):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            shown = capsys.readouterr().out
            assert all(re.search(rf"\b{name}\b", shown) for name in names)
        assert {p.kind for p in PRESETS.values()} <= set(PIPELINES)

    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "wqsim.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_thread_cap_env(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(ONE_ATOM)
        # A minimal environment, plus the source root of the imported
        # package on PYTHONPATH so the child finds wqsim whether or not it
        # is installed.
        src_root = Path(wqsim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "wqsim.cli", "simulate", "--config",
             str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "HOME": str(Path.home()),
                 "WQSIM_THREADS": "1", "PYTHONPATH": str(src_root),
                 "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr


class _Recorder:
    """Stands in for matplotlib and its figures and axes: every attribute is
    a call that is logged and returns a fresh recorder, and `subplots`
    returns a figure and an axes."""

    def __init__(self, log, name):
        self._log, self._name = log, name

    def __getattr__(self, attr):
        def call(*args, **kwargs):
            self._log.append((f"{self._name}.{attr}", args, kwargs))
            if attr == "subplots":
                return _Recorder(self._log, "fig"), _Recorder(self._log, "ax")
            return _Recorder(self._log, attr)
        return call


@pytest.fixture
def drawn(monkeypatch):
    """The log of every matplotlib call, made on a recording stand-in."""
    log = []
    plt = _Recorder(log, "plt")
    mpl = _Recorder(log, "matplotlib")
    mpl.pyplot = plt
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    return log


class TestFigures:
    def test_every_figure_is_saved_once(self, tmp_path, drawn):
        two, plan = parse_config_text(GOOD)
        one, one_plan = parse_config_text(ONE_ATOM)
        runs = [(two, plan, "cascade",
                 ["populations", "spectra", "two_photon"]),
                (two, plan, "cee", ["cee"]),
                (one, one_plan, "spatial", ["amplitudes", "field_snapshot"]),
                (two, plan, "spatial", ["amplitudes", "field_snapshot"])]
        for i, (config, settings, kind, figures) in enumerate(runs):
            drawn.clear()
            out = tmp_path / str(i)
            wqsim.run_pipeline(config, settings, out, kind=kind, plot=True)
            saved = [args[0] for name, args, _ in drawn
                     if name == "fig.savefig"]
            assert saved == [out / f"{f}.svg" for f in figures], kind
            calls = [name for name, _, _ in drawn]
            assert calls.count("plt.subplots") == len(figures)
            assert calls.count("plt.close") == len(figures)
            # one legend entry per curve
            labels = [kw.get("label") for name, _, kw in drawn
                      if name == "ax.plot"]
            assert None not in labels and len(set(labels)) == len(labels)


class TestConfigFileApi:
    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(GOOD)
        cfg, run = parse_config_file(p)
        assert cfg.omega_a == 50.0

    def test_settings_merge(self):
        s = RunSettings(t_end=1.0, dt=0.1)
        m = s.merged(dt=0.05, k_points=11)
        assert m.t_end == 1.0 and m.dt == 0.05 and m.k_points == 11

    def test_settings_merge_rejects_unknown_field(self):
        for value in (1.0, None):
            with pytest.raises(TypeError):
                RunSettings().merged(t_stop=value)


class TestRunPlan:
    @staticmethod
    def one_error_line(capsys, field):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert len(lines) == 1 and f"'{field}'" in lines[0], err

    def test_non_finite_plans_are_refused_where_built(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(GOOD.replace("t_end = 0.5", "t_end = inf"))
        rc = main(["simulate", "--config", str(cfg), "--out",
                   str(tmp_path / "a")])
        assert rc == 2
        self.one_error_line(capsys, "t_end")
        rc = main(["preset", "fig5", "--out", str(tmp_path / "b"),
                   "--dt", "nan"])
        assert rc == 2
        self.one_error_line(capsys, "dt")
        with pytest.raises(ParseError, match=r":13: .*'t_end'"):
            parse_config_text(GOOD.replace("t_end = 0.5", "t_end = nan"))
        for bad in ({"t_end": -1.0}, {"dt": 0.0}, {"k_points": 1},
                    {"k_halfwidth": math.inf}, {"k_points": 3.5},
                    {"k_points": 2**64}, {"t_end": 10**400}, {"dt": "0.1"}):
            with pytest.raises(ValueError, match=repr(next(iter(bad)))):
                RunSettings(**bad)
        # a mode count past numpy's integers, from a config and a flag
        with pytest.raises(ParseError, match=r":15: .*'k_points'"):
            parse_config_text(GOOD.replace("k_points = 41", "k_points = 1e30"))
        rc = main(["preset", "fig5", "--out", str(tmp_path / "c"),
                   "--k-points", "1000000000000000000000"])
        assert rc == 2
        self.one_error_line(capsys, "k_points")

    @pytest.mark.parametrize("bad", [
        {"t_end": True}, {"dt": True}, {"k_halfwidth": False},
        {"dt": 0.1, "k_halfwidth": True}])
    def test_bool_plan_fields_refused(self, bad):
        # a bool is a number to `numbers.Real`, but format_config would
        # write `t_end = True`, which parse_config_text refuses
        name = next(k for k, v in bad.items() if isinstance(v, bool))
        with pytest.raises(ValueError, match=f"'{name}'.*{bad[name]}"):
            RunSettings(**bad)

    def test_unknown_kind_refused_before_any_output(self, tmp_path):
        out = tmp_path / "never"
        with pytest.raises(UnknownPreset, match="'bogus'"):
            wqsim.run_pipeline(PRESETS["fig5"].config, RunSettings(), out,
                               kind="bogus")
        assert not out.exists()

    def test_preset_plans_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PRESETS["fig2"].settings.dt = 0.5
        assert PRESETS["fig2"].settings.dt == 0.1 / 64

    def test_resolved_fills_the_default_plan(self):
        cfg = PRESETS["fig2"].config
        assert RunSettings().resolved(cfg) == RunSettings(
            t_end=40 * 0.1, dt=0.1 / 64, k_points=1001,
            k_halfwidth=default_halfwidth(cfg, 40 * 0.1))

    def test_resolved_keeps_explicit_values(self, tmp_path, capsys):
        cfg = PRESETS["fig2"].config
        s = RunSettings(t_end=0.5, dt=0.001, k_points=11, k_halfwidth=0.0)
        assert s.resolved(cfg) == s
        # a numpy float32 is a finite real, kept as given
        s32 = RunSettings(dt=np.float32(0.1))
        assert s32.resolved(cfg).dt == s32.dt
        with pytest.raises(InvalidGrid):
            wqsim.run_pipeline(cfg, s, tmp_path / "a")
        rc = main(["preset", "fig2", "--out", str(tmp_path / "b"),
                   "--k-halfwidth", "0"])
        assert rc == 2
        assert "half_width" in capsys.readouterr().err

    def test_flags_reach_the_manifest_alike(self, tmp_path, capsys):
        preset = PRESETS["fig4_dashed"]
        cfg = tmp_path / "dashed.cfg"
        cfg.write_text(format_config(preset.config))
        flags = ["--t-end", "0.2", "--dt", "0.005", "--k-points", "11",
                 "--k-halfwidth", "3.0"]
        assert main(["simulate", "--config", str(cfg), "--mode", "cee",
                     "--out", str(tmp_path / "sim")] + flags) == 0
        assert main(["preset", "fig4_dashed", "--out", str(tmp_path / "pre")]
                    + flags) == 0

        def params(run):
            lines = (tmp_path / run / "manifest.txt").read_text().splitlines()
            return [ln for ln in lines if ln.startswith("param.")]

        assert params("sim") == params("pre")
        for line in ("param.t_end = 0.2", "param.dt = 0.005",
                     "param.k_points = 11", "param.k_halfwidth = 3.0"):
            assert line in params("sim")
