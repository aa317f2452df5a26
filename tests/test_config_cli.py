import argparse
import contextlib
import io
import os
import struct
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinlayer import config as config_module
from spinlayer import cli as cli_module
from spinlayer import dynamics, maxwell, presets, snapshots
from spinlayer.cli import main
from spinlayer.config import RunConfig, build_setup, parse_config
from spinlayer.errors import NonFinite, ParseError, SolverDiverged, ValidationError

from conftest import traced_peak

MINIMAL = """
[geometry]
lx = 1.0
ly = 1.0
l_minus = 0.5
l_plus = 0.5
nx = 4
ny = 4
nz_minus = 2
nz_plus = 2

[material]
a_exch = 0.01
alpha = 1.0
ks = 0.02
j1 = 0.02
j2 = 0.01
sigma = 1.0

[scheme]
dt = 0.002

[maxwell]
padding = 2

[initial]
m = random 11
h0 = magnetostatic

[output]
directory = {outdir}

[run]
t_end = 0.02
"""


M_LINE = MINIMAL.splitlines().index("m = random 11") + 1


def minimal_config(outdir):
    return MINIMAL.format(outdir=outdir)


class TestParse:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path / "o"))
        assert cfg.integrator == "heun"
        assert cfg.constraint == "projected"
        assert cfg.bc == "pec"
        assert cfg.padding == 2
        assert cfg.cadence == 1
        assert cfg.m0 == ("random", 11.0)

    def test_unknown_key_reports_line(self):
        text = "[geometry]\nlx = 1.0\nfoo = 3\n"
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert "foo" in str(err.value)
        assert err.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_config("[nonsense]\na = 1\n")
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as err:
            parse_config("[geometry]\nlx = 1.0\nlx = 2.0\n")
        assert err.value.line == 3

    def test_bad_number(self):
        with pytest.raises(ParseError) as err:
            parse_config("[geometry]\nlx = banana\n")
        assert err.value.line == 2

    def test_assignment_before_section(self):
        with pytest.raises(ParseError):
            parse_config("lx = 1.0\n")

    def test_eta_nontiling_is_validation_error(self, tmp_path):
        text = minimal_config(tmp_path).replace(
            "nz_plus = 2", "nz_plus = 2\neta = 0.3").replace(
            "dt = 0.002", "dt = 0.002\nbc_mode = thin_layer")
        with pytest.raises(ValidationError) as err:
            build_setup(parse_config(text))
        assert "geometry" in err.value.field

    def test_sharp_mode_drops_eta(self, tmp_path):
        # the one-cell layer takes no eta: a given one, tiling or not, is
        # dropped at load, so check accepts it and echoes none
        for eta in ("0.3", "0.25"):
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(minimal_config(tmp_path / "out").replace(
                "nz_plus = 2", f"nz_plus = 2\neta = {eta}"))
            assert parse_config(cfg_path.read_text()) == parse_config(
                minimal_config(tmp_path / "out"))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["check", str(cfg_path)]) == 0
            assert "\neta = " not in out.getvalue()

    @pytest.mark.parametrize("preset, count", [
        ("uniform 1 0", "3"), ("random", "1 to 2"), ("random 1 2 3", "1 to 2"),
        ("vortexish 1", "0")])
    def test_preset_argument_count_reports_line(self, tmp_path, preset, count):
        with pytest.raises(ParseError, match=f"^line {M_LINE}: preset "
                                             f"'{preset.split()[0]}' takes {count} "):
            parse_config(minimal_config(tmp_path).replace("m = random 11", f"m = {preset}"))

    @pytest.mark.parametrize("text, message", [
        ("[geometry]\nlx 1.0\n", "expected 'key = value'"),
        ("[geometry]\nlx =\n", "missing value for 'lx'"),
        ("[geometry]\nlx = inf\n", "expected a finite number, got 'inf'"),
        ("[material]\nk_diag = 1 2\n", "expected 3 numbers"),
        ("[output]\nsnapshots = maybe\n", "expected on/off, got 'maybe'")])
    def test_malformed_line_reports_line(self, text, message):
        with pytest.raises(ParseError, match=f"^line 2: {message}"):
            parse_config(text)

    def test_threads_key_unknown(self):
        with pytest.raises(ParseError) as err:
            parse_config("[run]\nthreads = 2\n")
        assert err.value.line == 2

    def test_thin_layer_requires_eta(self, tmp_path):
        # and a config built in code that pairs an eta with sharp mode,
        # where the layer is one cell deep, is refused
        cfg = parse_config(minimal_config(tmp_path).replace(
            "dt = 0.002", "dt = 0.002\nbc_mode = thin_layer"))
        with pytest.raises(ValidationError) as err:
            build_setup(cfg)
        assert err.value.field == "geometry.eta"
        with pytest.raises(ValidationError) as err:
            build_setup(RunConfig(eta=0.25))
        assert err.value.field == "geometry.eta"

    def test_values_are_not_checked_at_parse(self):
        # every value below is out of range, the mode words included, yet
        # parsing refuses only a malformed line or the retired frozen = on;
        # the set-up refuses
        text = """
[geometry]
nx = 0
eta = -1
trace_order = 2
[material]
alpha = 0
k_diag = 1 1 1
k_matrix = 1 0 0 0 1 0 0 0 1
[scheme]
dt = -1
integrator = euler
constraint = free
bc_mode = thick
subcycles = 0
stability_c = 0
[maxwell]
padding = 0
bc = mur
[initial]
m = random -1 1e300
[current]
f = pulse 1 0 0 0 -1
[output]
cadence = 0
[run]
t_end = -1
"""
        cfg = parse_config(text)
        assert (cfg.nx, cfg.eta, cfg.trace_order, cfg.alpha, cfg.dt, cfg.subcycles,
                cfg.stability_c, cfg.padding, cfg.m0, cfg.cadence, cfg.t_end) == (
            0, -1.0, 2, 0.0, -1.0, 0, 0.0, 0, ("random", -1, 1e300), 0, -1.0)
        assert (cfg.integrator, cfg.constraint, cfg.bc_mode, cfg.bc) == (
            "euler", "free", "thick", "mur")
        with pytest.raises(ValidationError):
            build_setup(cfg)
        with pytest.raises(ValidationError) as err:
            parse_config(text + "[maxwell]\nfrozen = on\n")
        assert err.value.field == "maxwell.frozen"

    def test_preset_arguments_typed(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path).replace(
            "m = random 11", "m = random 11 2"))
        assert cfg.m0 == ("random", 11, 2.0)
        assert isinstance(cfg.m0[1], int) and isinstance(cfg.m0[2], float)
        cfg = parse_config(minimal_config(tmp_path).replace(
            "m = random 11", "m = snapshot 123"))
        assert cfg.m0 == ("snapshot", "123")
        with pytest.raises(ParseError) as err:
            parse_config(minimal_config(tmp_path).replace(
                "m = random 11", "m = random 1.5"))
        assert err.value.line == M_LINE

    def test_round_trip(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path / "out"))
        assert parse_config(cfg.to_text()) == cfg

    def test_round_trip_all_presets(self):
        cfg = RunConfig(eta=0.25, bc_mode="thin_layer",
                        m0=("uniform", 1.0, 0.0, 0.0),
                        h0=("uniform", 0.1, 0.0, 0.0),
                        e0=("uniform", 0.0, 0.1, 0.0),
                        f=("pulse", 0.1, 0.0, 0.0, 1.0, 0.5),
                        k_diag=(0.1, 0.2, 0.3), snapshots_on=True,
                        directory="my out#1")
        assert parse_config(cfg.to_text()) == cfg
        # quoted strings: a space and a '#' inside a preset's path
        cfg = RunConfig(m0=("snapshot", "/tmp/my run#2/m.snap"), directory="it's")
        assert parse_config(cfg.to_text()) == cfg

    def test_preset_words_map_to_values(self, tmp_path):
        # the h0 and current words are spelled in the config only: `h0 =
        # zero`, the old spelling, reads as magnetostatic, and `f = zero`
        # is no current
        base = minimal_config(tmp_path / "o")
        assert parse_config(base.replace("h0 = magnetostatic", "h0 = zero")) == parse_config(base)
        assert build_setup(parse_config(base + "[current]\nf = zero\n")).f is None
        pulse = build_setup(parse_config(base + "[current]\nf = pulse 1 0 0 0.01 0.005\n")).f
        assert (pulse.amplitude.tolist(), pulse.t0, pulse.width) == ([1.0, 0.0, 0.0], 0.01, 0.005)
        for bad in (base.replace("h0 = magnetostatic", "h0 = dipole"),
                    base + "[current]\nf = step\n"):
            with pytest.raises(ParseError):
                parse_config(bad)

    def test_quoted_hash_is_not_a_comment(self):
        cfg = parse_config('[output]\ndirectory = "out#1"  # a comment\n')
        assert cfg.directory == "out#1"
        cfg = parse_config("[output]\ndirectory = out#1\n")
        assert cfg.directory == "out"

    @pytest.mark.parametrize("value", ['"out', "'out#1", "out\\"])
    def test_unbalanced_quote_reports_line(self, value):
        with pytest.raises(ParseError) as err:
            parse_config(f"[output]\ncadence = 1\ndirectory = {value}\n")
        assert err.value.line == 3


# Echoes written by the releases before `[maxwell] frozen`, `[run] seed` and
# `[material] mu0` were retired and `h0 = zero` became `magnetostatic`.
# `diag` reparses a run directory's effective_config, so these bytes must
# still load to the same run, and today's echo is them with those four
# edits (`_new_echo`).
DEFAULT_ECHO = """\
[geometry]
lx = 1
ly = 1
l_minus = 0.5
l_plus = 0.5
nx = 8
ny = 8
nz_minus = 4
nz_plus = 4
trace_order = 1

[material]
a_exch = 0
ks = 0
j1 = 0
j2 = 0
alpha = 1
mu0 = 1
eps0 = 1
sigma = 0
penalty_k = 0

[scheme]
dt = 0.001
integrator = heun
constraint = projected
bc_mode = sharp
subcycles = 1
stability_c = 0.25

[maxwell]
padding = 8
bc = pec
frozen = off

[initial]
m = uniform 0 0 1
h0 = zero
e0 = zero

[current]
f = zero

[output]
directory = out
cadence = 1
snapshots = off

[run]
t_end = 0
seed = 0
"""

README_ECHO = """\
[geometry]
lx = 1
ly = 1
l_minus = 0.5
l_plus = 0.5
nx = 16
ny = 16
nz_minus = 8
nz_plus = 8
eta = 0.25
trace_order = 1

[material]
a_exch = 0.01
ks = 0.01
j1 = 0.01
j2 = 0.01
alpha = 1
mu0 = 1
eps0 = 1
sigma = 10
penalty_k = 0
k_diag = 0.050000000000000003 0.02 0

[scheme]
dt = 0.012
integrator = heun
constraint = projected
bc_mode = sharp
subcycles = 8
stability_c = 0.25

[maxwell]
padding = 8
bc = pec
frozen = off

[initial]
m = random 1234 4
h0 = magnetostatic
e0 = zero

[current]
f = zero

[output]
directory = out
cadence = 1
snapshots = off

[run]
t_end = 24
seed = 0
"""

OLD_EFFECTIVE_CONFIG = """\
[geometry]
lx = 1
ly = 1
l_minus = 0.5
l_plus = 0.5
nx = 4
ny = 4
nz_minus = 2
nz_plus = 2
eta = 0.25
trace_order = 1

[material]
a_exch = 0.01
ks = 0.02
j1 = 0.02
j2 = 0.01
alpha = 1
mu0 = 1
eps0 = 1
sigma = 1
penalty_k = 0
k_matrix = 0.050000000000000003 0 0 0 0.02 0 0 0 0

[scheme]
dt = 0.002
integrator = rk4
constraint = penalized
bc_mode = thin_layer
subcycles = 2
stability_c = 0.25

[maxwell]
padding = 2
bc = mur1
frozen = off

[initial]
m = random 11 1
h0 = zero
e0 = uniform 0 0.10000000000000001 0

[current]
f = pulse 0.5 0 0 0.01 0.0050000000000000001

[output]
directory = '/tmp/old run'
cadence = 2
snapshots = on

[run]
t_end = 0.02
seed = 0
"""


def _new_echo(old: str) -> str:
    """An old echo as this release writes it: without the retired
    `frozen = off`, `seed = 0` and `mu0 = 1` lines, and h0's `zero` as
    magnetostatic."""
    lines = [line for line in old.splitlines(keepends=True)
             if line not in ("frozen = off\n", "seed = 0\n", "mu0 = 1\n")]
    return "".join(lines).replace("h0 = zero\n", "h0 = magnetostatic\n")


class TestEcho:
    def test_default_echo_is_pinned(self):
        assert parse_config(DEFAULT_ECHO) == RunConfig()
        assert RunConfig().to_text() == _new_echo(DEFAULT_ECHO)

    def test_readme_echo_is_pinned(self):
        # the README config is in sharp mode, which drops its eta at load
        cfg = parse_config(README_CONFIG)
        assert parse_config(README_ECHO) == cfg
        assert cfg.eta is None
        assert cfg.to_text() == _new_echo(README_ECHO).replace("eta = 0.25\n", "")

    def test_old_effective_config_loads(self):
        # every key written, the single-valued trace_order and the retired
        # frozen = off, h0 = zero and seed = 0 included: it loads to the
        # same run, whose m0 is the parent's draw, and the new echo of it
        # round-trips
        cfg = parse_config(OLD_EFFECTIVE_CONFIG)
        assert cfg == RunConfig(
            nx=4, ny=4, nz_minus=2, nz_plus=2, eta=0.25, trace_order=1,
            a_exch=0.01, ks=0.02, j1=0.02, j2=0.01, sigma=1.0,
            k_matrix=(0.05, 0.0, 0.0, 0.0, 0.02, 0.0, 0.0, 0.0, 0.0),
            dt=0.002, integrator="rk4", constraint="penalized", bc_mode="thin_layer",
            subcycles=2, padding=2, bc="mur1",
            m0=("random", 11, 1.0), h0=("magnetostatic",), e0=("uniform", 0.0, 0.1, 0.0),
            f=("pulse", 0.5, 0.0, 0.0, 0.01, 0.005), directory="/tmp/old run",
            cadence=2, snapshots_on=True, t_end=0.02)
        setup = build_setup(cfg)
        assert setup.m0.tobytes() == presets.random_unit_m(setup.geom, 11, 1.0).tobytes()
        assert cfg.to_text() == _new_echo(OLD_EFFECTIVE_CONFIG)
        assert parse_config(cfg.to_text()) == cfg

    def test_old_run_seed_is_the_random_preset_seed(self):
        # a nonzero [run] seed overrode the preset's seed, wherever the
        # section stands, so an old echo holding one reruns its field
        old = OLD_EFFECTIVE_CONFIG.replace("seed = 0", "seed = 5")
        cfg = parse_config(old)
        assert cfg.m0 == ("random", 5, 1.0)
        setup = build_setup(cfg)
        assert setup.m0.tobytes() == presets.random_unit_m(setup.geom, 5, 1.0).tobytes()
        run_first = "[run]\nseed = 5\n" + OLD_EFFECTIVE_CONFIG.replace("seed = 0\n", "")
        assert parse_config(run_first).m0 == ("random", 5, 1.0)
        assert "seed" not in cfg.to_text()


class TestBuildSetup:
    def test_magnetostatic_h0_divfree(self, tmp_path):
        setup = build_setup(parse_config(minimal_config(tmp_path / "o")))
        assert setup.em.div0 is not None
        assert np.abs(setup.em.div0).max() < 1e-10

    def test_seed_override_changes_field(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path / "o"))
        a = build_setup(cfg).m0
        config_module._override_seed(cfg, 99)
        b = build_setup(cfg).m0
        assert not np.allclose(a, b)


class TestSnapshots:
    def test_round_trip_m(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((3, 4, 5, 3))
        path = tmp_path / "m.snap"
        snapshots.write_snapshot(path, snapshots.FIELD_M, (3, 4, 5),
                                 (0.1, 0.2, 0.3), 1.5, [arr])
        fid, dims, sp, t, arrays = snapshots.read_snapshot(path)
        assert fid == snapshots.FIELD_M
        assert dims == (3, 4, 5)
        assert sp == (0.1, 0.2, 0.3)
        assert t == 1.5
        assert np.array_equal(arrays[0], arr)
        assert not os.path.exists(str(path) + ".partial")

    def test_round_trip_yee(self, tmp_path):
        rng = np.random.default_rng(1)
        n = (3, 4, 5)
        hx = rng.standard_normal((4, 4, 5))
        hy = rng.standard_normal((3, 5, 5))
        hz = rng.standard_normal((3, 4, 6))
        path = tmp_path / "h.snap"
        snapshots.write_snapshot(path, snapshots.FIELD_H, n, (1, 1, 1), 0.0,
                                 [hx, hy, hz])
        _, _, _, _, arrays = snapshots.read_snapshot(path)
        for a, b in zip(arrays, (hx, hy, hz)):
            assert np.array_equal(a, b)


    def test_header_counts_beyond_the_file_rejected(self, tmp_path):
        # counts far beyond the file: rejected before any payload is read
        path = tmp_path / "m.snap"
        path.write_bytes(struct.pack("<16s4s3I3dd", snapshots.MAGIC, snapshots.FIELD_M,
                                     2**32 - 1, 2**32 - 1, 2**32 - 1, 1.0, 1.0, 1.0, 0.0)
                         + bytes(24))
        with pytest.raises(ValueError, match="truncated snapshot payload"):
            snapshots.read_snapshot(path)

    def test_malformed_write_or_header_rejected(self, tmp_path):
        path, m = tmp_path / "m.snap", np.zeros((2, 2, 2, 3))
        for field_id, arrays, message in (
                (b"XXXX", [m], "unknown snapshot field id b'XXXX'"),
                (snapshots.FIELD_M, [m, m], "b'MCEL' expects 1 arrays"),
                (snapshots.FIELD_M, [m[:1]], r"array shape \(1, 2, 2, 3\) does not match")):
            with pytest.raises(ValueError, match=message):
                snapshots.write_snapshot(path, field_id, (2, 2, 2), (1, 1, 1), 0.0, arrays)
            assert not path.exists()
        path.write_bytes(snapshots.MAGIC)
        with pytest.raises(ValueError, match="truncated snapshot header"):
            snapshots.read_snapshot(path)


# ways to spoil one snapshot of a finished run; each returns the file


def _truncated_m(outdir):
    path = outdir / "state_final_m.snap"
    path.write_bytes(path.read_bytes()[:-8])
    return path


def _bad_magic_e(outdir):
    path = outdir / "state_final_e.snap"
    path.write_bytes(b"SPINLAYERSNAP000" + path.read_bytes()[16:])
    return path


def _h_of_a_larger_box(outdir):
    path = outdir / "state_final_h.snap"
    _, dims, spacings, t, _ = snapshots.read_snapshot(path)
    dims = tuple(n + 2 for n in dims)
    faces = [np.zeros(s) for s in snapshots._payload_shapes(snapshots.FIELD_H, dims)]
    snapshots.write_snapshot(path, snapshots.FIELD_H, dims, spacings, t, faces)
    return path


def _h_over_m(outdir):
    path = outdir / "state_final_m.snap"
    path.write_bytes((outdir / "state_final_h.snap").read_bytes())
    return path


def _truncated_initial_h(outdir):
    path = outdir / "state_initial_h.snap"
    path.write_bytes(path.read_bytes()[:-8])
    return path


def _initial_m_of_another_grid(outdir):
    path = outdir / "state_initial_m.snap"
    _, dims, spacings, t, _ = snapshots.read_snapshot(path)
    # twice the run's grid: a payload well above what reading a header takes
    dims = tuple(2 * n for n in dims)
    m = np.zeros(dims + (3,))
    m[..., 2] = 1.0
    snapshots.write_snapshot(path, snapshots.FIELD_M, dims, spacings, t, [m])
    return path


# diag reads the initial snapshots between computations, the final ones after
SNAPSHOT_DAMAGE = [_truncated_m, _bad_magic_e, _h_of_a_larger_box, _h_over_m,
                   _truncated_initial_h, _initial_m_of_another_grid]


class TestCli:
    def test_check_valid_no_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["check", str(cfg_path)]) == 0
        assert not outdir.exists()
        echoed = capsys.readouterr().out
        assert "[geometry]" in echoed
        # the echo itself parses back to the same effective config
        assert parse_config(echoed) == parse_config(cfg_path.read_text())

    def test_check_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[geometry]\nbogus = 1\n")
        assert main(["check", str(cfg_path)]) == 2

    def test_check_trace_order_two_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out").replace(
            "nz_plus = 2", "nz_plus = 2\ntrace_order = 2"))
        assert main(["check", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: config: geometry: trace_order must be 1\n"
        assert not (tmp_path / "out").exists()

    def test_numeric_failure_while_building_the_model_exit_3(self, tmp_path, capsys,
                                                             monkeypatch):
        # only a constructor's ValueError is reported as the config key it
        # was given: a numeric failure keeps its own kind and exit status
        def diverge(*args, **kwargs):
            raise SolverDiverged("probe")
        monkeypatch.setattr(maxwell, "make_box", diverge)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out"))
        assert main(["check", str(cfg_path)]) == 3
        assert capsys.readouterr() == ("", "error: numeric: probe\n")

    MU0_ERROR = ("error: config: material.mu0: only 1 is accepted; for mu0 = M give "
                 "eps0 * M, sigma * M, and f's amplitude and e0 over M\n")

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("after, accepted, refused, error", [
        # a frozen h has no Zeeman term in the ledger
        ("padding = 2", "frozen = off", "frozen = on",
         "error: config: maxwell.frozen: only off is accepted\n"),
        # e is measured in units of mu0, which it absorbs
        ("alpha = 1.0", "mu0 = 1", "mu0 = 1.7", MU0_ERROR),
    ], ids=["frozen", "mu0"])
    def test_retired_key_refuses_all_but_its_old_value_exit_2(
            self, tmp_path, capsys, command, after, accepted, refused, error):
        # the value old echoes hold loads to the same run; another is
        # rejected when the config is loaded, before any file is written
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        text = minimal_config(outdir).replace(after, f"{after}\n{accepted}")
        assert parse_config(text) == parse_config(minimal_config(outdir))
        cfg_path.write_text(text.replace(accepted, refused))
        assert main([command, str(cfg_path)]) == 2
        assert capsys.readouterr() == ("", error)
        assert not outdir.exists()

    def test_diag_of_a_run_with_mu0_other_than_one_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        effective = outdir / "effective_config"
        text = effective.read_text()
        effective.write_text(text.replace("[material]\n", "[material]\nmu0 = 1.7\n", 1))
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        capsys.readouterr()
        assert main(["diag", str(outdir)]) == 2
        assert capsys.readouterr() == ("", self.MU0_ERROR)
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before
        effective.write_text(text.replace("[material]\n", "[material]\nmu0 = 1\n", 1))
        assert main(["diag", str(outdir)]) == 0

    def test_diag_of_a_projected_run_with_a_penalty_exit_0(self, tmp_path, capsys):
        # the penalty_k rule is build_setup's, so a run directory written
        # before it still loads; check of the same file refuses it
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        effective = outdir / "effective_config"
        text = effective.read_text()
        assert text.count("penalty_k = 0\n") == 1
        effective.write_text(text.replace("penalty_k = 0\n", "penalty_k = 10\n"))
        capsys.readouterr()
        assert main(["diag", str(outdir)]) == 0
        assert main(["check", str(effective)]) == 2
        assert capsys.readouterr().err.startswith("error: config: material.penalty_k: ")

    def test_threads_env_ignored(self, tmp_path, capsys, monkeypatch):
        # nothing reads SPINLAYER_THREADS; a malformed value must not matter
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out"))
        monkeypatch.setenv("SPINLAYER_THREADS", "abc")
        assert main(["check", str(cfg_path)]) == 0

    @pytest.mark.parametrize("preset, where", [
        ("snapshot 123", "initial.m"),   # a path, never the number 123.0
        ("random abc", f"line {M_LINE}:"),
        ("random 1.5", f"line {M_LINE}:"),   # no silent truncation to seed 1
    ])
    def test_bad_preset_argument_exit_2(self, tmp_path, capsys, monkeypatch,
                                        preset, where):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "run.cfg"
        text = minimal_config(tmp_path / "out").replace("m = random 11", f"m = {preset}")
        cfg_path.write_text(text)
        assert main(["check", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ")
        assert where in err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out"))
        assert main(["--seed", "-1", "check", str(cfg_path)]) == 2
        assert "initial.m: seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["5", "-1"])
    @pytest.mark.parametrize("preset", ["uniform 0 0 1", "vortexish"])
    def test_seed_flag_on_a_preset_without_a_seed_exit_2(self, tmp_path, capsys, seed,
                                                          preset):
        # --seed would do nothing there, so it is refused, naming the flag
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out").replace(
            "m = random 11", f"m = {preset}"))
        assert main(["--seed", seed, "check", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: config: --seed: only a random m preset takes a seed, "
                       f"not {preset.split()[0]}\n")
        assert main(["check", str(cfg_path)]) == 0

    @pytest.mark.parametrize("flag, value", [("--log-every", "5"), ("--log-every", "-1"),
                                             ("--snapshots", "on"), ("--seed", "3")])
    def test_run_flag_given_to_diag_exit_2(self, tmp_path, capsys, flag, value):
        # diag rereads the run's effective_config, where a run flag would
        # do nothing, so it is refused, naming the flag, and nothing is
        # written
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main([flag, value, "diag", str(outdir)]) == 2
        assert capsys.readouterr() == ("", f"error: config: {flag}: diag rereads the run's "
                                           f"effective_config and takes no run flag\n")
        assert not (outdir / "diag_report.csv").exists()
        assert main(["diag", str(outdir)]) == 0

    @pytest.mark.parametrize("old, new, prefix", [
        ("alpha = 1.0", "alpha = 0", "material: alpha must "),
        ("dt = 0.002", "dt = -0.002", "scheme: dt must "),
        ("dt = 0.002", "dt = 0.002\nsubcycles = 0", "scheme: subcycles must "),
        ("dt = 0.002", "dt = 0.002\nstability_c = 0", "scheme: stability_c must "),
        ("dt = 0.002", "dt = 0.002\nstability_c = -1", "scheme: stability_c must "),
        ("alpha = 1.0", "alpha = 1.0\nk_diag = 0.05 0.02 0.0\n"
                        "k_matrix = 0.05 0 0 0 0.02 0 0 0 0", "material.k_matrix: "),
        ("padding = 2", "padding = 0", "maxwell.padding: "),
        ("t_end = 0.02", "t_end = -0.02", "run.t_end: "),
        ("m = random 11", "m = random -1", "initial.m: "),
        ("m = random 11", "m = random 11 -1", "initial.m: "),
        ("m = random 11", "m = random 11 1e300", "initial.m: "),
        ("m = random 11", "m = uniform 0 0 0", "initial.m: "),
        ("[output]", "[current]\nf = pulse 1 0 0 0.01 0\n[output]", "current.f: "),
        ("[output]", "[current]\nf = pulse 1 0 0 0.01 -0.005\n[output]", "current.f: "),
        ("dt = 0.002", "dt = 0.002\nintegrator = euler",
         "scheme: unknown integrator 'euler' (choose from ('heun', 'rk4'))\n"),
        ("dt = 0.002", "dt = 0.002\nconstraint = free",
         "scheme: unknown constraint 'free' (choose from "),
        ("dt = 0.002", "dt = 0.002\nbc_mode = thick\n[geometry]\neta = 0.25",
         "scheme: unknown bc_mode 'thick' (choose from "),   # before the eta rule
        ("padding = 2", "padding = 2\nbc = mur",
         "maxwell.bc: unknown boundary 'mur' (choose from ('pec', 'mur1'))\n"),
        ("sigma = 1.0", "sigma = 1.0\npenalty_k = 10",
         "material.penalty_k: acts only under constraint = penalized"),
    ])
    def test_check_names_the_field_it_rejects(self, tmp_path, capsys, old, new, prefix):
        # on one stderr line, and run refuses it as check does, writing nothing
        outdir = tmp_path / "out"
        text = minimal_config(outdir)
        assert text.count(old) == 1
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text.replace(old, new))
        for command in ("check", "run"):
            assert main([command, str(cfg_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: config: {prefix}") and captured.out == ""
            assert captured.err.count("\n") == 1
            assert not outdir.exists()

    def test_k_matrix_runs_the_bits_of_k_diag(self, tmp_path, capsys):
        # a diagonal k_matrix is the matching k_diag; an indefinite one is
        # rejected with the material named
        outputs = []
        for name, k in (("diag", "k_diag = 0.05 0.02 0.0"),
                        ("matrix", "k_matrix = 0.05 0 0 0 0.02 0 0 0 0")):
            outdir = tmp_path / name
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(minimal_config(outdir).replace("alpha = 1.0",
                                                               f"alpha = 1.0\n{k}"))
            assert main(["run", str(cfg_path)]) == 0
            outputs.append([(outdir / f).read_bytes() for f in (
                "energy.csv", "state_final_m.snap", "state_final_h.snap",
                "state_final_e.snap")])
        assert outputs[0] == outputs[1]
        rows = outputs[0][0].decode().splitlines()
        col = rows[0].split(",").index("anisotropy")
        assert float(rows[-1].split(",")[col]) > 0.0
        cfg_path = tmp_path / "indefinite.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "bad").replace(
            "alpha = 1.0", "alpha = 1.0\nk_matrix = 0.05 0 0 0 -0.02 0 0 0 0"))
        assert main(["check", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config: material: ")

    @pytest.mark.parametrize("command, log_every", [("check", "0"), ("run", "0"),
                                                    ("run", "-2")])
    def test_log_every_flag_below_one_exit_2(self, tmp_path, capsys, command, log_every):
        # the override is validated like the file's cadence: nothing runs
        # and no output directory appears
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["--log-every", log_every, command, str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert "output.cadence" in captured.err and captured.out == ""
        assert not outdir.exists()

    def test_unbalanced_quote_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        text = minimal_config(tmp_path / "out")
        cfg_path.write_text(text.replace(f"directory = {tmp_path / 'out'}",
                                         'directory = "out'))
        assert main(["check", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: line ") and "quotation" in err

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.cfg")]) == 4

    @pytest.mark.parametrize("command", ["check", "run"])
    @pytest.mark.parametrize("old, new, code, error", [
        # numpy could index these stores (87 PiB each) but no machine holds
        # them; the first allocation fails before any memory is touched
        ("padding = 2", "padding = 80000", 4, "error: memory: Unable to allocate "),
        # beyond what numpy can index at all: rejected with the key named
        ("padding = 2", "padding = 10000000", 2,
         "error: config: maxwell.padding: a Yee box of 20000004 x 20000004 x "
         "20000004 cells is too large for numpy to index"),
        ("nx = 4", "nx = 100000000000000000", 2,
         "error: config: geometry: a body of 100000000000000000 x 4 x 4 cells is "
         "too large for numpy to index"),
    ], ids=["padding-80000", "padding-1e7", "body"])
    def test_grid_too_large_to_allocate(self, tmp_path, capsys, command, old, new,
                                        code, error):
        # one error line, no traceback and no output directory
        outdir = tmp_path / "out"
        text = minimal_config(outdir).replace(old, new)
        assert new in text
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main([command, str(cfg_path)]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(error) and err.count("\n") == 1
        assert not outdir.exists()

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        # the bad byte's line is named, counted as the parser counts lines,
        # after a line holding a multi-byte character
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes("# é\r\n[geometry]\nlx = 1.0".encode() + b"\xff\n")
        assert main(["check", str(cfg_path)]) == 2
        assert capsys.readouterr() == ("", "error: config: line 3: not UTF-8: byte 0xff\n")

    def test_diag_of_an_effective_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        effective = outdir / "effective_config"
        lines = effective.read_bytes().split(b"\n")
        lines[3] += b" \xff"
        effective.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["diag", str(outdir)]) == 2
        assert capsys.readouterr() == ("", "error: config: line 4: not UTF-8: byte 0xff\n")
        assert not {"diag_report.csv", "stationarity.csv"} & set(os.listdir(outdir))

    def test_run_writes_artifacts(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        names = sorted(os.listdir(outdir))
        assert "energy.csv" in names
        assert "effective_config" in names
        for tag in ("state_initial", "state_final"):
            for suffix in ("m", "h", "e"):
                assert f"{tag}_{suffix}.snap" in names
        assert not any(n.endswith(".partial") for n in names)
        assert "lock" not in names
        header = (outdir / "energy.csv").read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
        assert header.split(",")[-1] == "divergence_drift"

    def test_run_determinism_byte_identical(self, tmp_path):
        csvs = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.cfg"
            outdir = tmp_path / name
            cfg_path.write_text(minimal_config(outdir))
            assert main(["run", str(cfg_path)]) == 0
            csvs.append((outdir / "energy.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def _run_and_diag(self, tmp_path, text):
        """`run` then `diag` on one config; diag's row must be run's last."""
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        assert main(["diag", str(outdir)]) == 0
        energy_rows = (outdir / "energy.csv").read_text().splitlines()
        cols = energy_rows[0].split(",")
        last = dict(zip(cols, energy_rows[-1].split(",")))
        diag_rows = (outdir / "diag_report.csv").read_text().splitlines()
        diag = dict(zip(diag_rows[0].split(","), diag_rows[1].split(",")))
        for key, value in diag.items():
            assert value == last[key], f"{key}: {value} != {last[key]}"
        # stationarity report: one residual per library test function
        stat_rows = (outdir / "stationarity.csv").read_text().splitlines()
        assert stat_rows[0] == "test_fn,residual"
        assert len(stat_rows) == 1 + 27
        return outdir

    def test_diag_reproduces_final_row(self, tmp_path):
        self._run_and_diag(tmp_path, minimal_config(tmp_path / "out"))

    def test_diag_rereads_the_default_h0(self, tmp_path):
        # a config without h0 echoes the default kind, `magnetostatic`,
        # into effective_config, and diag parses that file again: the kind
        # must stay valid for diag to read such a run
        text = minimal_config(tmp_path / "out").replace("h0 = magnetostatic\n", "")
        assert "h0" not in text
        outdir = self._run_and_diag(tmp_path, text)
        assert "h0 = magnetostatic" in (outdir / "effective_config").read_text().splitlines()

    @pytest.mark.parametrize("damage", SNAPSHOT_DAMAGE, ids=lambda f: f.__name__[1:])
    def test_diag_bad_snapshot_exit_4(self, tmp_path, capsys, damage):
        # a snapshot that is not the run's is an I/O error naming the file:
        # no traceback and no report
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        path = damage(outdir)
        capsys.readouterr()
        assert main(["diag", str(outdir)]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: io: {path}: ") and captured.out == ""
        assert captured.err.count("\n") == 1
        assert not (outdir / "diag_report.csv").exists()
        if damage is _initial_m_of_another_grid:
            # the header is checked first, so the payload is never read
            dims = snapshots.read_snapshot(outdir / "state_final_m.snap")[1]

            def reject():
                with pytest.raises(snapshots.SnapshotError, match="holds b'MCEL' on"):
                    snapshots.read_field(path, snapshots.FIELD_M, dims)
            payload = path.stat().st_size - snapshots._HEADER.size
            assert traced_peak(reject)[1] < payload

    def test_diag_peak_below_eight_stores(self, tmp_path):
        # the benchmark's `cli` input on the README grid (32^3 Yee box),
        # two steps: diag holds the stepped fields (m and the two stores),
        # the Maxwell workspace and one snapshot at a time, then drops the
        # workspace and solves the omega-limit field into the h store
        outdir = tmp_path / "out"
        text = README_CONFIG
        for old, new in [("eta = 0.25", "eta = 0.125"),
                         ("penalty_k = 0.0", "penalty_k = 10.0"),
                         ("integrator = heun", "integrator = rk4"),
                         ("constraint = projected", "constraint = penalized"),
                         ("bc_mode = sharp", "bc_mode = thin_layer"),
                         ("bc = pec", "bc = mur1"),
                         ("f = zero", "f = pulse 0.5 0.2 0.0 0.012 0.006"),
                         ("directory = out", f"directory = {outdir}"),
                         ("snapshots = off", "snapshots = on"),
                         ("t_end = 24.0", "t_end = 0.024")]:
            assert old in text
            text = text.replace(old, new)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        warm = cli_module.recompute_final_row(str(outdir))
        again, peak = traced_peak(cli_module.recompute_final_row, str(outdir))
        assert again == warm
        store = 8 * 3 * 33 ** 3   # one h store of the 32^3 box
        assert peak < 8 * store, peak / store

    def test_diag_builds_no_initial_fields(self, tmp_path, monkeypatch):
        # diag replaces m0, h and e by the stored snapshots, so it never
        # builds the config's initial fields
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0

        def refuse(setup):
            raise AssertionError("diag built the initial fields")
        monkeypatch.setattr(config_module, "set_initial_fields", refuse)
        assert main(["diag", str(outdir)]) == 0
        last = (outdir / "energy.csv").read_text().splitlines()[-1].split(",")
        diag = (outdir / "diag_report.csv").read_text().splitlines()[1].split(",")
        assert set(diag) <= set(last)

    def test_lock_busy_exit_4(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        os.makedirs(outdir)
        (outdir / "lock").write_text("")
        assert main(["run", str(cfg_path)]) == 4

    def test_output_directory_under_a_file_exit_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        (tmp_path / "file").write_text("")
        cfg_path.write_text(minimal_config(tmp_path / "file" / "out"))
        assert main(["run", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith(
            "error: io: cannot create output directory: ")

    def test_lock_that_is_a_directory_names_no_owner(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        os.makedirs(outdir / "lock")
        assert main(["run", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: output directory is locked: {outdir / 'lock'} "
                              f"is held by an unknown owner (unreadable: ")
        assert os.listdir(outdir) == ["lock"]

    @pytest.mark.parametrize("name, error", [
        ("open", "cannot lock output directory: [Errno 13] Permission denied"),
        ("fdopen", "cannot write the lock file: [Errno 28] No space left on device")])
    def test_lock_that_cannot_be_taken_exit_4(self, tmp_path, capsys, monkeypatch, name,
                                              error):
        # an OSError in creating or writing the lock file names the step
        # that failed; nothing is written and no lock is left
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        real_open = os.open

        def no_permission(path, *args):
            if os.path.basename(path) == "lock":
                raise PermissionError(13, "Permission denied")
            return real_open(path, *args)

        def full_disk(fd, *args):
            os.close(fd)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, name, {"open": no_permission, "fdopen": full_disk}[name])
        assert main(["run", str(cfg_path)]) == 4
        assert capsys.readouterr().err == f"error: io: {error}\n"
        assert os.listdir(outdir) == []

    def test_lock_removed_during_the_run_exit_0(self, tmp_path, monkeypatch):
        # the lock is removed however the block ends, and one already gone
        # is no failure
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        real_run = dynamics.run

        def run_without_lock(*args, **kwargs):
            os.remove(outdir / "lock")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(dynamics, "run", run_without_lock)
        assert main(["run", str(cfg_path)]) == 0
        assert (outdir / "state_final_m.snap").exists()

    def test_lock_names_its_owner(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        seen = []
        real_run = dynamics.run

        def run_with_second_attempt(*args, **kwargs):
            seen.append((outdir / "lock").read_text())
            seen.append(main(["run", str(cfg_path)]))
            seen.append(capsys.readouterr().err)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(dynamics, "run", run_with_second_attempt)
        assert main(["run", str(cfg_path)]) == 0
        owner, code, err = seen
        assert owner.startswith(f"pid {os.getpid()} started ")
        assert code == 4
        assert owner.strip() in err
        assert not (outdir / "lock").exists()

    def test_check_rejects_what_run_rejects(self, tmp_path, capsys):
        # the README config at dt = 5 breaks the exchange stability bound:
        # check and run both exit 3, and run writes nothing
        outdir = tmp_path / "out"
        text = README_CONFIG.replace("dt = 0.012", "dt = 5").replace(
            "directory = out", f"directory = {outdir}")
        assert "dt = 5\n" in text and str(outdir) in text
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        for command in ("check", "run"):
            assert main([command, str(cfg_path)]) == 3
            err = capsys.readouterr().err
            assert "dt=5 exceeds the exchange stability bound" in err
        assert not outdir.exists()

    def test_check_rejects_an_initial_field_the_first_step_overflows(
            self, tmp_path, capsys):
        # h0 = 1e308 overflows the cell average of h: build_setup evaluates
        # the first right-hand side, so check and run both exit 3 with the
        # field and the cell named, write nothing and warn nothing
        outdir = tmp_path / "out"
        text = README_CONFIG.replace(
            "h0 = magnetostatic", "h0 = uniform 1e308 1e308 1e308").replace(
            "directory = out", f"directory = {outdir}")
        assert "h0 = uniform 1e308" in text and str(outdir) in text
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        for command in ("check", "run"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a numpy RuntimeWarning fails
                assert main([command, str(cfg_path)]) == 3
            err = capsys.readouterr().err
            assert err == ("error: numeric: initial h on the body cells is not "
                           "finite at t=0, first at cell (0, 0, 0)\n")
        assert not outdir.exists()

    def test_check_takes_the_first_step_run_takes(self, tmp_path, capsys):
        # j2 = 1e300 leaves the first rate finite but overflows the surface
        # field within the first step: check takes that step, so both
        # commands exit 3 with the same line, and check creates no directory
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(outdir).replace("j2 = 0.01", "j2 = 1e300"))
        for command in ("check", "run"):
            if command == "run":
                assert not outdir.exists()
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a numpy RuntimeWarning fails
                assert main([command, str(cfg_path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: numeric: magnetization m became non-finite at "
                           "step 1, t=0, first at cell (0, 0, 0)\n")

    def test_check_takes_no_step_run_does_not_take(self, tmp_path, capsys):
        # with t_end = 0 run takes no step and logs its one row; check steps
        # only as far as run does, so both exit 0 although j2 = 1e300
        # overflows the first step
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(outdir).replace("j2 = 0.01", "j2 = 1e300")
                            .replace("t_end = 0.02", "t_end = 0"))
        for command in ("check", "run"):
            if command == "run":
                assert not outdir.exists()
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a numpy RuntimeWarning fails
                assert main([command, str(cfg_path)]) == 0
            assert capsys.readouterr().err == ""
        assert len((outdir / "energy.csv").read_text().splitlines()) == 2

    def test_nonfinite_ledger_row_exit_3(self, tmp_path, capsys):
        # e0 = 1e155 overflows maxwell_e, and so total, in the t = 0 row:
        # run and check both exit 3 naming the step, t and first column;
        # run's energy.csv.partial holds the header and no row, and check
        # creates no directory
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        text = (minimal_config(outdir)
                .replace("dt = 0.002", "dt = 0.002\nsubcycles = 4")
                .replace("m = random 11", "m = random 3 1.0")
                .replace("h0 = magnetostatic", "h0 = magnetostatic\ne0 = uniform 1e155 0 0")
                .replace("t_end = 0.02", "t_end = 0.002"))
        assert "e0 = uniform 1e155" in text and "subcycles = 4" in text
        cfg_path.write_text(text)
        for command in ("check", "run"):
            if command == "run":
                assert not outdir.exists()
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # a numpy RuntimeWarning fails
                assert main([command, str(cfg_path)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: numeric: 2 ledger values at step 0, t=0 are not "
                           "finite, first maxwell_e\n")
        names = os.listdir(outdir)
        assert "energy.csv" not in names and "lock" not in names
        partial = (outdir / "energy.csv.partial").read_text()
        assert partial == ",".join(cli_module.CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("t_end, dt", [("0.005", "0.002"), ("0.007", "0.002"),
                                           ("1e+300", "1e-10"), ("1000000.001", "0.002")])
    def test_t_end_off_the_step_grid_exit_2(self, tmp_path, capsys, t_end, dt):
        # none is a whole number of steps: run would round the first two to
        # 0.004 and 0.008, the step count of the third overflows, and the
        # fourth is 500000000.5 steps, within a relative 1e-9 of a whole
        # count but half a step off it.  check and run both exit 2 naming
        # run.t_end, and neither creates the directory
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(outdir).replace("t_end = 0.02", f"t_end = {t_end}")
                            .replace("dt = 0.002", f"dt = {dt}"))
        for command in ("check", "run"):
            assert main([command, str(cfg_path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"error: config: run.t_end: t_end={float(t_end):g} is not a "
                           f"whole number of steps of dt={dt}\n")
        assert not outdir.exists()

    def test_pulse_without_conduction_exit_2(self, tmp_path, capsys):
        # sigma (e + f) is the current's only entry: with sigma = 0 a pulse
        # would be evaluated every substep and never read.  check and run
        # exit 2 naming current.f and create no directory
        outdir = tmp_path / "out"
        pulse = minimal_config(outdir).replace(
            "[output]", "[current]\nf = pulse 1 0 0 0.01 0.005\n\n[output]")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(pulse.replace("sigma = 1.0", "sigma = 0.0"))
        for command in ("check", "run"):
            assert main([command, str(cfg_path)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == ("error: config: current.f: the current enters only through "
                           "sigma (e + f), and sigma = 0\n")
        assert not outdir.exists()
        # diag builds no initial fields: it still reads a run directory
        # whose effective_config holds the pair, as older runs wrote it
        cfg_path.write_text(pulse)
        assert main(["run", str(cfg_path)]) == 0
        effective = outdir / "effective_config"
        text = effective.read_text()
        assert "sigma = 1\n" in text
        effective.write_text(text.replace("sigma = 1\n", "sigma = 0\n"))
        assert main(["diag", str(outdir)]) == 0

    def test_diag_reduces_over_the_run_layout(self, tmp_path, monkeypatch):
        # the final m snapshot is row-major on disk; diag reads it back into
        # the component-major layout the run's ledger summed over
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        layouts = []
        state_terms = cli_module._state_terms

        def spy(m, *args, **kwargs):
            layouts.append(np.moveaxis(m, -1, 0).flags.c_contiguous)
            return state_terms(m, *args, **kwargs)
        monkeypatch.setattr(cli_module, "_state_terms", spy)
        assert main(["run", str(cfg_path)]) == 0
        assert main(["diag", str(outdir)]) == 0
        assert layouts == [True]

    def test_numeric_failure_exit_3(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        # dt far beyond the exchange stability bound
        text = minimal_config(outdir).replace("dt = 0.002", "dt = 50.0")
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 3

    def test_nan_snapshot_exit_3(self, tmp_path, capsys):
        # m0 is checked before the projection reads it: check and run both
        # exit 3 naming the first bad cell, and run creates no directory
        one_bad = np.zeros((4, 4, 4, 3))
        one_bad[..., 2] = 1.0
        one_bad[1, 2, 3] = (np.nan, 0.0, 0.0)
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        for bad, cell in ((np.full((4, 4, 4, 3), np.nan), "(0, 0, 0)"),
                          (one_bad, "(1, 2, 3)")):
            snap = tmp_path / "bad.snap"
            snapshots.write_snapshot(snap, snapshots.FIELD_M, (4, 4, 4),
                                     (0.25, 0.25, 0.25), 0.0, [bad])
            cfg_path.write_text(minimal_config(outdir).replace(
                "m = random 11", f"m = snapshot {snap}"))
            for command in ("check", "run"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")   # a numpy RuntimeWarning fails
                    assert main([command, str(cfg_path)]) == 3
                assert capsys.readouterr().err == (
                    "error: numeric: initial magnetization is not finite, first at cell "
                    f"{cell}\n")
        assert not outdir.exists()

    def test_check_of_a_diverged_projection_exits_3(self, tmp_path, capsys,
                                                    perturbed_poisson):
        # SolverDiverged from the initial projection is a numeric failure:
        # one stderr line, no traceback
        outdir = tmp_path / "out"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(README_CONFIG.replace("directory = out",
                                                  f"directory = {outdir}"))
        assert main(["check", str(cfg_path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: numeric: divergence projection residual ")
        assert err.endswith(" above tolerance\n")
        assert not outdir.exists()

    def test_flag_overrides_recorded(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["--log-every", "5", "--snapshots", "on", "--seed", "42",
                     "run", str(cfg_path)]) == 0
        eff = parse_config((outdir / "effective_config").read_text())
        assert eff.cadence == 5
        assert eff.snapshots_on is True
        assert eff.m0 == ("random", 42)
        assert any(n.startswith("m_") and n.endswith(".snap")
                   for n in os.listdir(outdir))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_seed_flag_draws_its_field(self, tmp_path, seed):
        # --seed S gives the field of `m = random S` for every S >= 0, zero
        # included, and so does its echo, which records S in the preset
        text = minimal_config(tmp_path / "out")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        args = argparse.Namespace(log_every=None, snapshots=None, seed=seed)
        flagged = cli_module._load_config(str(cfg_path), args)
        want = build_setup(parse_config(text.replace("m = random 11",
                                                     f"m = random {seed}"))).m0
        for config in (flagged, parse_config(flagged.to_text())):
            assert np.array_equal(build_setup(config).m0, want)


    @pytest.mark.parametrize("command, module, name", [
        ("check", cli_module, "build_setup"),
        ("run", cli_module, "build_setup"),
        ("run", dynamics, "run"),   # inside the lock
        ("diag", cli_module, "recompute_final_row"),
    ], ids=["check", "run-setup", "run-steps", "diag"])
    @pytest.mark.parametrize("error, code, kind", [
        (OSError("disk gone"), 4, "io"),
        (ValidationError("initial.m", "bad"), 2, "config"),
        (NonFinite("m became non-finite"), 3, "numeric"),
        (OverflowError("math range error"), 3, "numeric"),
        (MemoryError("Unable to allocate 1.00 PiB"), 4, "memory"),
    ], ids=["OSError", "ValidationError", "NonFinite", "OverflowError", "MemoryError"])
    def test_main_maps_each_failure_to_its_exit_code(
            self, tmp_path, capsys, monkeypatch, command, module, name, error, code,
            kind):
        # the one map of main: one stderr line, no stdout, and no lock left
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        if command == "diag":
            assert main(["run", str(cfg_path)]) == 0

        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(module, name, fail)
        capsys.readouterr()
        target = outdir if command == "diag" else cfg_path
        assert main([command, str(target)]) == code
        assert capsys.readouterr() == ("", f"error: {kind}: {error}\n")
        assert not (outdir / "lock").exists()

    def test_snapshot_write_failure_midrun_exit_4(self, tmp_path, capsys, monkeypatch):
        # the third step's m snapshot cannot be written: the run stops with
        # one line, removes its lock, and leaves the closed ledger of the
        # rows logged so far (steps 0 to 3) under the .partial suffix
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "full"))
        assert main(["run", str(cfg_path)]) == 0
        full = (tmp_path / "full" / "energy.csv").read_text().splitlines()
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        write = snapshots.write_snapshot

        def no_space_at_step_3(path, *args):
            if os.path.basename(path) == "m_00000003.snap":
                raise OSError(28, "No space left on device")
            write(path, *args)
        monkeypatch.setattr(snapshots, "write_snapshot", no_space_at_step_3)
        assert main(["--snapshots", "on", "run", str(cfg_path)]) == 4
        assert capsys.readouterr().err == "error: io: [Errno 28] No space left on device\n"
        names = set(os.listdir(outdir))
        assert {"m_00000001.snap", "m_00000002.snap", "energy.csv.partial"} <= names
        assert not names & {"lock", "energy.csv", "m_00000003.snap", "state_final_m.snap"}
        assert (outdir / "energy.csv.partial").read_text().splitlines() == full[:5]


class TestRunVariants:
    def test_pulse_current_drives_source_integral(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        text = minimal_config(outdir).replace(
            "[output]", "[current]\nf = pulse 0.5 0.0 0.0 0.01 0.005\n\n[output]")
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0
        rows = (outdir / "energy.csv").read_text().splitlines()
        cols = rows[0].split(",")
        values = [dict(zip(cols, r.split(","))) for r in rows[1:]]
        assert float(values[-1]["source_integral"]) != 0.0
        # dissipation and Ohmic integrals are non-decreasing in time
        for key in ("dissipation_integral", "ohmic_integral"):
            series = [float(v[key]) for v in values]
            assert all(b >= a for a, b in zip(series, series[1:]))

    @pytest.mark.parametrize("pulse", ["1 0 0 1e300 1", "1 0 0 0.01 1e-200"])
    def test_distant_or_narrow_pulse_runs(self, tmp_path, pulse):
        # (t - t0)/width passes 1e154 at every substep, so its square would
        # overflow a Python float: the Gaussian is 0 there and the run takes
        # no current
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir).replace(
            "[output]", f"[current]\nf = pulse {pulse}\n\n[output]"))
        assert main(["run", str(cfg_path)]) == 0
        rows = (outdir / "energy.csv").read_text().splitlines()
        last = dict(zip(rows[0].split(","), rows[-1].split(",")))
        assert float(last["source_integral"]) == 0.0

    def test_nonfinite_run_writes_one_error_line(self, tmp_path):
        # j2 = 1e300 overflows the surface field in the first step: numpy's
        # RuntimeWarnings stay off stderr, where NonFinite names the failure
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(minimal_config(tmp_path / "out").replace(
            "j2 = 0.01", "j2 = 1e300"))
        done = subprocess.run([sys.executable, "-m", "spinlayer.cli", "run", str(cfg_path)],
                              env=_package_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 3
        assert done.stderr == ("error: numeric: magnetization m became non-finite at "
                               "step 1, t=0, first at cell (0, 0, 0)\n")

    @pytest.mark.parametrize("scale, error", [
        (1e200, "stored final magnetization m is not finite or overflows when squared, "
                "first at cell (0, 0, 0)\n"),
        # |m|^2 is finite, but the biquadratic energy is quartic in m
        (1e80, "29 diagnostics of the stored final state are not finite, first "
               "superexch_biq\n"),
    ], ids=["square", "quartic"])
    def test_diag_of_an_overflowing_state_exits_3(self, tmp_path, scale, error):
        # a final m whose energies overflow fails as a non-finite run does:
        # exit 3, one stderr line without numpy's RuntimeWarnings, no report
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir))
        assert main(["run", str(cfg_path)]) == 0
        path = outdir / "state_final_m.snap"
        field_id, dims, spacings, t, (m,) = snapshots.read_snapshot(path)
        snapshots.write_snapshot(path, field_id, dims, spacings, t, [m * scale])
        done = subprocess.run([sys.executable, "-m", "spinlayer.cli", "diag", str(outdir)],
                              env=_package_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 3
        assert done.stderr == "error: numeric: " + error
        assert done.stdout == ""
        assert not {"diag_report.csv", "stationarity.csv"} & set(os.listdir(outdir))

    @pytest.mark.parametrize("name, component, index, value, error", [
        ("state_initial_m.snap", 0, (1, 2, 3, 0), np.nan,
         "stored initial magnetization m is not finite or overflows when squared, "
         "first at cell (1, 2, 3)\n"),
        ("state_initial_h.snap", 1, (0, 0, 0), np.inf,
         "stored initial electromagnetic field hy is not finite or overflows when "
         "squared, first at index (0, 0, 0)\n"),
    ], ids=["m", "h"])
    def test_diag_names_a_corrupt_initial_snapshot(self, tmp_path, capsys, name, component,
                                                   index, value, error):
        # the initial m and h, which the recorded divergence reads, are
        # checked as they are loaded, as the final state is
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        cfg_path.write_text(minimal_config(outdir).replace(
            "m = random 11", "m = random 3 1.0").replace(
            "dt = 0.002", "dt = 0.001").replace("t_end = 0.02", "t_end = 0.002"))
        assert main(["--snapshots", "on", "run", str(cfg_path)]) == 0
        path = outdir / name
        field_id, dims, spacings, t, fields = snapshots.read_snapshot(path)
        fields = [np.array(a) for a in fields]
        fields[component][index] = value
        snapshots.write_snapshot(path, field_id, dims, spacings, t, fields)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy RuntimeWarning fails
            assert main(["diag", str(outdir)]) == 3
        assert capsys.readouterr() == ("", "error: numeric: " + error)
        assert not {"diag_report.csv", "stationarity.csv"} & set(os.listdir(outdir))

    def test_mur_boundary_via_config(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        text = minimal_config(outdir).replace(
            "padding = 2", "padding = 3\nbc = mur1")
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path)]) == 0

    def test_partial_output_preserved_on_midrun_failure(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        # a penalized run with a grossly unstable dt for the chosen k blows
        # up after a few steps, first in the step-2 row: the ledger written
        # so far must survive with the .partial suffix and no energy.csv
        # may appear
        text = minimal_config(outdir).replace(
            "dt = 0.002", "dt = 0.002\nconstraint = penalized")
        text = text.replace("sigma = 1.0", "sigma = 1.0\npenalty_k = 1e7")
        cfg_path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a numpy RuntimeWarning fails
            assert main(["run", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            "error: numeric: 3 ledger values at step 2, t=0.004 are not finite, "
            "first superexch_biq\n")
        names = os.listdir(outdir)
        assert "energy.csv" not in names
        assert "energy.csv.partial" in names
        assert "lock" not in names


    @pytest.mark.parametrize("bc", ["pec", "mur1"])
    def test_uniform_e0_on_the_interior_edges(self, tmp_path, bc):
        # the vector fills the edges off the walls, PEC zeroes the wall
        # (tangential) ones, and div(h + m_bar) stays conserved
        cfg_path = tmp_path / "run.cfg"
        outdir = tmp_path / "out"
        text = minimal_config(outdir).replace("padding = 2", f"padding = 2\nbc = {bc}")
        cfg_path.write_text(text.replace("h0 = magnetostatic",
                                         "h0 = magnetostatic\ne0 = uniform 0.3 -0.2 0.1"))
        assert main(["run", str(cfg_path)]) == 0
        fid, _, _, _, edges = snapshots.read_snapshot(outdir / "state_initial_e.snap")
        assert fid == snapshots.FIELD_E
        for axis, (e, v) in enumerate(zip(edges, (0.3, -0.2, 0.1))):
            # an edge along an axis lies on the walls normal to the other two
            interior = tuple(slice(None) if a == axis else slice(1, -1) for a in range(3))
            assert (e[interior] == v).all()
            if bc == "pec":
                wall = np.ones(e.shape, dtype=bool)
                wall[interior] = False
                assert (e[wall] == 0.0).all()
        rows = (outdir / "energy.csv").read_text().splitlines()
        col = rows[0].split(",").index("divergence_drift")
        assert len(rows) == 12
        assert all(float(r.split(",")[col]) <= 1e-10 for r in rows[1:])


class TestPresets:
    def test_uniform_direction_normalized(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path).replace(
            "m = random 11", "m = uniform 0 0 2"))
        m0 = build_setup(cfg).m0
        assert np.allclose(m0, [0, 0, 1])

    def test_vortexish_unit_and_circulating(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path).replace(
            "m = random 11", "m = vortexish"))
        m0 = build_setup(cfg).m0
        assert np.allclose(np.linalg.norm(m0, axis=-1), 1.0)
        # in-plane components circulate around the column axis
        x = (np.arange(4) + 0.5) * 0.25 - 0.5
        y = (np.arange(4) + 0.5) * 0.25 - 0.5
        lz = np.zeros(3)
        for i in range(4):
            for j in range(4):
                r = np.array([x[i], y[j], 0.0])
                lz += np.cross(r, m0[i, j, 0])
        assert lz[2] > 0.5

    def test_random_repeatable(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        a = build_setup(cfg).m0
        b = build_setup(cfg).m0
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=-1), 1.0)


def _readme_config():
    """The complete example config of README.md."""
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    return readme.split("### Configuration", 1)[1].split("```")[1]


README_CONFIG = _readme_config()
README_LINES = README_CONFIG.splitlines()
# lines of README_CONFIG that assign a value; fuzzing keeps every grid
# axis at 16 cells or fewer and the padding at 12 or less
ASSIGNMENTS = [i for i, line in enumerate(README_LINES)
               if "=" in line.split("#", 1)[0]]

TOKENS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["nan", "inf", "-0.0", "1e308", "1e-300", "heun", "thin_layer",
                     "banana", "on", "random", "uniform 1 0", "pulse 1 0 0 0 0",
                     '"', "'", '"out', "'a b'", "#", '"a#b"', "\\", ""]))


@st.composite
def snapshot_bytes(draw):
    """A snapshot file: header fields (magic, field id, dims <= 16) and a
    payload of any length up to the full one."""
    magic = draw(st.sampled_from([snapshots.MAGIC, b"SPINLAYERSNAP000"]))
    fid = draw(st.sampled_from([snapshots.FIELD_M, snapshots.FIELD_H, b"XXXX"]))
    dims = draw(st.sampled_from([(16, 16, 16), (0, 16, 16), (4, 4, 4),
                                 (16, 16, 15)]))
    fill = draw(st.sampled_from([1.0, 0.0, float("nan"), float("inf")]))
    count = int(np.prod(dims)) * 3
    payload = np.full(count, fill)
    payload[::7] = 0.5
    raw = payload.astype("<f8").tobytes()
    cut = draw(st.sampled_from([0, 1, 8, len(raw)]))
    header = struct.pack("<16s4s3I3dd", magic, fid, *dims, 0.1, 0.1, 0.1, 0.0)
    return header + raw[:len(raw) - cut]


def _check(argv):
    """(exit code, stdout) of `spinlayer <argv>`, stderr discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


FLAGS = st.fixed_dictionaries({
    "--log-every": st.one_of(st.none(), st.integers(-3, 12)),
    "--seed": st.one_of(st.none(), st.integers(-3, 2**40)),
})


class TestFuzz:
    """`spinlayer check` on the README config with one value replaced:
    always exit 0, 2, 3 or 4, never a traceback."""

    @settings(max_examples=120, deadline=None)
    @given(line=st.sampled_from(ASSIGNMENTS), token=TOKENS, flags=FLAGS)
    def test_check_one_value_replaced(self, line, token, flags):
        # with the flag overrides drawn too; whenever check accepts, its
        # echo parses back to the same config and is accepted in turn
        lines = list(README_LINES)
        key = lines[line].split("=", 1)[0]
        lines[line] = f"{key}= {token}"
        argv = [str(a) for flag, value in flags.items() if value is not None
                for a in (flag, value)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
            code, echo = _check(argv + ["check", path])
            assert code in (0, 2, 3, 4)
            if code != 0:
                return
            args = argparse.Namespace(log_every=flags["--log-every"], snapshots=None,
                                      seed=flags["--seed"])
            assert parse_config(echo) == cli_module._load_config(path, args)
            with open(path, "w") as fh:
                fh.write(echo)
            assert _check(["check", path]) == (0, echo)

    @settings(max_examples=40, deadline=None)
    @given(data=snapshot_bytes())
    def test_check_snapshot_preset(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            snap = os.path.join(tmp, "m.snap")
            with open(snap, "wb") as fh:
                fh.write(data)
            text = README_CONFIG.replace("m = random 1234 4.0", f"m = snapshot {snap}")
            assert text != README_CONFIG
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            assert main(["check", path]) in (0, 2, 3, 4)


def _package_env() -> dict:
    """The environment of a fresh interpreter that imports this spinlayer."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(config_module.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))


def _run_python(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports this spinlayer."""
    done = subprocess.run([sys.executable, "-c", code], env=_package_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_cli_imports_no_scipy():
    code = ("import sys, spinlayer.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code).strip() == "[]"


def test_build_setup_imports_nothing():
    # every module a set-up needs (numpy.random, numpy.fft) loads with the
    # package, so the set-up time holds no import
    code = ("import sys\n"
            "from spinlayer import cli, config\n"
            f"cfg = config.parse_config({README_CONFIG!r})\n"
            "before = set(sys.modules)\n"
            "config.build_setup(cfg)\n"
            "print(sorted(set(sys.modules) - before))")
    assert _run_python(code).strip() == "[]"
