"""Run-configuration text format and validation.

Sectioned key = value text, one assignment per line, '#' comments.
Values are split like a shell command line, so quotes keep a space or a
'#' inside one value.  Unknown sections or keys, malformed quoting and
non-finite numbers are rejected with the offending line number; a value
the run cannot take is refused where `build_setup` uses it.  Each key
is declared once, as a RunConfig field with its section, converter and
default (`_key`); the field order is the order of the canonical echo
`to_text`, which parses back to an identical config.  Keys that older
echoes wrote and that set no field now are read by `_RETIRED`'s rules,
so an old run directory's effective_config still loads to the same run.
"""

import contextlib
import math
import shlex
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import dynamics, maxwell, presets, snapshots
from .dynamics import (BC_MODES, CONSTRAINTS, HEUN, INTEGRATORS, PROJECTED, SHARP,
                       THIN_LAYER, SchemeConfig)
from .energetics import MaterialParams, _vector_copy
from .errors import ParseError, SimulationError, ValidationError, _check_cells
from .geometry import GeometryConfig, _is_multiple, build_geometry
from .maxwell import AppliedCurrent


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, str):
        return shlex.quote(v)
    return str(v)


def _to_float(tok, line):
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(line, f"expected a number, got {tok!r}")
    if not math.isfinite(value):
        raise ParseError(line, f"expected a finite number, got {tok!r}")
    return value


def _to_int(tok, line):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"expected an integer, got {tok!r}")


def _to_bool(tok, line):
    low = tok.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ParseError(line, f"expected on/off, got {tok!r}")


def _preset(tokens, line, kinds):
    """(kind, *typed args); kinds maps a kind to its argument converters,
    with the optional trailing ones in a second tuple."""
    kind = tokens[0]
    if kind not in kinds:
        raise ParseError(line, f"unknown preset {kind!r} (choose from {sorted(kinds)})")
    required, optional = kinds[kind]
    args = tokens[1:]
    n_min, n_max = len(required), len(required) + len(optional)
    if not n_min <= len(args) <= n_max:
        count = n_min if n_min == n_max else f"{n_min} to {n_max}"
        raise ParseError(line, f"preset {kind!r} takes {count} argument(s)")
    return (kind,) + tuple(conv(tok, line) for conv, tok in zip(required + optional, args))


def _to_path(tok, line):
    return tok


# converters get (tokens, line)
def _scalar(conv):
    def convert(tokens, line):
        if len(tokens) != 1:
            raise ParseError(line, "expected a single value")
        return conv(tokens[0], line)
    return convert


def _choice(options):
    def convert(tokens, line):
        if len(tokens) != 1 or tokens[0] not in options:
            raise ParseError(line, f"expected one of {sorted(options)}")
        return tokens[0]
    return convert


def _floats(n):
    def convert(tokens, line):
        if len(tokens) != n:
            raise ParseError(line, f"expected {n} numbers")
        return tuple(_to_float(t, line) for t in tokens)
    return convert


_FLOAT, _INT, _BOOL = _scalar(_to_float), _scalar(_to_int), _scalar(_to_bool)
_VEC3 = ((_to_float,) * 3, ())
_NO_ARGS = ((), ())


def _to_h0(tokens, line):
    """The h0 preset; `zero`, its old spelling, reads as `magnetostatic`,
    the same field."""
    h0 = _preset(tokens, line, {"magnetostatic": _NO_ARGS, "zero": _NO_ARGS,
                                "uniform": _VEC3})
    return ("magnetostatic",) if h0 == ("zero",) else h0


def _key(section: str, convert, default, key: Optional[str] = None):
    """A RunConfig field that is one line of the text: its default, its
    section, its converter and its key, the attribute's name unless given."""
    return field(default=default, metadata={"text": (section, key, convert)})


@dataclass
class RunConfig:
    """One field per key of the text (`_key`), in the order of the echo."""

    lx: float = _key("geometry", _FLOAT, 1.0)
    ly: float = _key("geometry", _FLOAT, 1.0)
    l_minus: float = _key("geometry", _FLOAT, 0.5)
    l_plus: float = _key("geometry", _FLOAT, 0.5)
    nx: int = _key("geometry", _INT, 8)
    ny: int = _key("geometry", _INT, 8)
    nz_minus: int = _key("geometry", _INT, 4)
    nz_plus: int = _key("geometry", _INT, 4)
    eta: Optional[float] = _key("geometry", _FLOAT, None)
    trace_order: int = _key("geometry", _INT, 1)   # only 1 is accepted
    a_exch: float = _key("material", _FLOAT, 0.0)
    ks: float = _key("material", _FLOAT, 0.0)
    j1: float = _key("material", _FLOAT, 0.0)
    j2: float = _key("material", _FLOAT, 0.0)
    alpha: float = _key("material", _FLOAT, 1.0)
    mu0: float = _key("material", _FLOAT, 1.0)
    eps0: float = _key("material", _FLOAT, 1.0)
    sigma: float = _key("material", _FLOAT, 0.0)
    penalty_k: float = _key("material", _FLOAT, 0.0)
    k_diag: Optional[tuple] = _key("material", _floats(3), None)
    k_matrix: Optional[tuple] = _key("material", _floats(9), None)   # row major
    dt: float = _key("scheme", _FLOAT, 1e-3)
    integrator: str = _key("scheme", _choice(INTEGRATORS), HEUN)
    constraint: str = _key("scheme", _choice(CONSTRAINTS), PROJECTED)
    bc_mode: str = _key("scheme", _choice(BC_MODES), SHARP)
    subcycles: int = _key("scheme", _INT, 1)
    stability_c: float = _key("scheme", _FLOAT, 0.25)
    padding: int = _key("maxwell", _INT, 8)
    bc: str = _key("maxwell", _choice(maxwell.BOUNDARIES), maxwell.PEC)
    m0: tuple = _key("initial", lambda toks, ln: _preset(toks, ln, {
        "uniform": _VEC3, "vortexish": _NO_ARGS,
        "random": ((_to_int,), (_to_float,)),   # seed [smooth_cells]
        "snapshot": ((_to_path,), ())}), ("uniform", 0.0, 0.0, 1.0), key="m")
    h0: tuple = _key("initial", _to_h0, ("magnetostatic",))
    e0: tuple = _key("initial", lambda toks, ln: _preset(
        toks, ln, {"zero": _NO_ARGS, "uniform": _VEC3}), ("zero",))
    f: tuple = _key("current", lambda toks, ln: _preset(   # pulse ax ay az t0 width
        toks, ln, {"zero": _NO_ARGS, "pulse": ((_to_float,) * 5, ())}), ("zero",))
    directory: str = _key("output", lambda toks, ln: " ".join(toks), "out")
    cadence: int = _key("output", _INT, 1)
    snapshots_on: bool = _key("output", _BOOL, False, key="snapshots")
    t_end: float = _key("run", _FLOAT, 0.0)

    def to_text(self) -> str:
        """The canonical echo: every key of every section in field order,
        unset optional keys left out; it parses back to this config."""
        lines = []
        for section, keys in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (attr, _) in keys.items():
                value = getattr(self, attr)
                if value is None:
                    continue
                values = value if isinstance(value, tuple) else (value,)
                lines.append(f"{key} = " + " ".join(_fmt(v) for v in values))
            lines.append("")
        return "\n".join(lines)


_SCHEMA = {}   # section -> key -> (attr, converter), in RunConfig's field order
for _field in fields(RunConfig):
    _section, _name, _convert = _field.metadata["text"]
    _SCHEMA.setdefault(_section, {})[_name or _field.name] = (_field.name, _convert)

# Keys that older echoes wrote and that set no field now, with their
# converters.  `frozen` must be off: a frozen h has no Zeeman term in the
# energy ledger.  A nonzero `seed` overrode the random preset's seed, so
# `parse_config` writes it there: an old effective_config draws one m0.
_RETIRED = {"maxwell": {"frozen": _BOOL}, "run": {"seed": _INT}}


def read_config_text(path: str) -> str:
    """A configuration file's text as UTF-8 whatever the locale; a byte that
    is not UTF-8 raises ParseError with its line, numbered as parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line, f"not UTF-8: byte {data[exc.start]:#04x}") from None


def parse_config(text: str) -> RunConfig:
    """Configuration text -> RunConfig with all defaults filled in, checked
    line by line (ParseError with the line's number) but not for values
    the run cannot take (`build_model`), the retired `frozen = on` aside.
    In sharp mode a given eta is dropped: the one-cell layer takes none."""
    config = RunConfig()
    section = None
    seen = set()
    retired = {}   # key -> value of the `_RETIRED` keys given
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = raw.partition("=")
        if "#" in key:                 # a comment starts before any '='
            key, eq = key.split("#", 1)[0], ""
        key = key.strip()
        if not eq:
            if not key:
                continue
            if key.startswith("[") and key.endswith("]"):
                section = key[1:-1].strip()
                if section not in _SCHEMA:
                    raise ParseError(lineno, f"unknown section [{section}]")
                continue
            raise ParseError(lineno, "expected 'key = value'")
        if section is None:
            raise ParseError(lineno, "assignment before any [section]")
        try:
            # shell quoting; '#' starts a comment outside quotes
            tokens = shlex.split(value, comments=True)
        except ValueError as exc:
            raise ParseError(lineno, f"bad value for {key!r}: {exc}")
        old = _RETIRED.get(section, {})
        if key not in _SCHEMA[section] and key not in old:
            raise ParseError(lineno, f"unknown key {key!r} in [{section}]")
        if not tokens:
            raise ParseError(lineno, f"missing value for {key!r}")
        if (section, key) in seen:
            raise ParseError(lineno, f"duplicate key {key!r} in [{section}]")
        seen.add((section, key))
        if key in old:
            retired[key] = old[key](tokens, lineno)
            continue
        attr, converter = _SCHEMA[section][key]
        setattr(config, attr, converter(tokens, lineno))
    if retired.get("frozen"):
        raise ValidationError("maxwell.frozen", "only off is accepted")
    if retired.get("seed"):
        _override_seed(config, retired["seed"])
    if config.bc_mode == SHARP:
        config.eta = None
    return config


@dataclass
class RunSetup:
    """Everything dynamics.run needs, built from a config."""

    config: RunConfig
    geom: object
    params: MaterialParams
    scheme: SchemeConfig
    em: object
    m0: Optional[np.ndarray]   # None until `set_initial_fields`
    f: Optional[AppliedCurrent]   # None: no current


def build_setup(config: RunConfig) -> RunSetup:
    """Materialize grids, parameters and initial fields: `build_model`,
    then `set_initial_fields`, then `_check_first_rate`, which names a
    non-finite initial h or first rate; `check` then steps through
    `dynamics.run` as far as the first step.  A cadence below 1, and a
    t_end that is negative or not a whole number of steps of dt (to a
    relative 1e-9 of the step count and at most 1e-6 steps,
    `geometry._is_multiple`) raise ValidationError, as does a current
    with sigma = 0, which the conduction term sigma (e + f) never reads."""
    setup = build_model(config)
    if config.cadence < 1:
        raise ValidationError("output.cadence", "must be at least 1")
    if config.t_end < 0:
        raise ValidationError("run.t_end", "must be nonnegative")
    if not _is_multiple(config.t_end, config.dt):
        raise ValidationError("run.t_end", f"t_end={config.t_end:g} is not a whole "
                                           f"number of steps of dt={config.dt:g}")
    if setup.f is not None and config.sigma == 0.0:
        raise ValidationError("current.f", "the current enters only through "
                                           "sigma (e + f), and sigma = 0")
    with np.errstate(all="ignore"):   # non-finite values raise NonFinite
        set_initial_fields(setup)
        _check_first_rate(setup)
    return setup


@contextlib.contextmanager
def _refused(field: str):
    """A constructor's refusal (ValueError or a geometry error) as
    ValidationError naming the config section or key it was given."""
    try:
        yield
    except (ValueError, SimulationError) as exc:
        raise ValidationError(field, str(exc)) from exc


def build_model(config: RunConfig) -> RunSetup:
    """Grids, parameters, the applied current and a zero electromagnetic
    state; `m0` is left None.

    The geometry's spacer layer is the eta layer in thin_layer mode and
    the one-cell layer in sharp mode, which takes no eta.  Each
    constructor checks its own values, and its refusal is reported as
    ValidationError naming the config section or key (`_refused`); a dt
    beyond the exchange or Yee stability bound raises CFLViolation, as
    `dynamics.run` would.
    """
    if (config.eta is None) == (config.bc_mode == THIN_LAYER):
        raise ValidationError("geometry.eta", "required in thin_layer mode, "
                                              "refused in sharp mode")
    with _refused("geometry"):
        geom = build_geometry(GeometryConfig(
            base_lx=config.lx, base_ly=config.ly,
            l_minus=config.l_minus, l_plus=config.l_plus,
            nx=config.nx, ny=config.ny,
            nz_minus=config.nz_minus, nz_plus=config.nz_plus,
            eta=config.eta, trace_order=config.trace_order))

    if config.k_diag is not None and config.k_matrix is not None:
        raise ValidationError("material.k_matrix", "give k_diag or k_matrix, not both")
    k = None
    if config.k_matrix is not None:
        k = np.reshape(config.k_matrix, (3, 3))
    elif config.k_diag is not None:
        k = np.diag(config.k_diag)
    with _refused("material"):
        params = MaterialParams(
            a_exch=config.a_exch, k_matrix=k, ks=config.ks,
            j1=config.j1, j2=config.j2, alpha=config.alpha,
            mu0=config.mu0, eps0=config.eps0, sigma=config.sigma,
            penalty_k=config.penalty_k)

    with _refused("scheme"):
        scheme = SchemeConfig(
            dt=config.dt, subcycles=config.subcycles, integrator=config.integrator,
            constraint=config.constraint, bc_mode=config.bc_mode,
            stability_c=config.stability_c)

    with _refused("maxwell.padding"):
        box = maxwell.make_box(geom, config.padding)
    # the bounds `dynamics.run` enforces, so `check` rejects what `run` would
    dynamics.validate_stability(scheme, geom, params, box)

    return RunSetup(config=config, geom=geom, params=params, scheme=scheme,
                    em=maxwell.empty_em_state(box, bc=config.bc), m0=None,
                    f=_build_current(config))


def set_initial_fields(setup: RunSetup):
    """m0, the divergence-free initial h and e0 of the config, and the
    recorded initial divergence.  An m0 that is not finite raises
    NonFinite naming its first bad cell, before the projection reads it."""
    config, em = setup.config, setup.em
    setup.m0 = _build_m0(config, setup.geom)
    _check_cells(setup.m0, "initial magnetization is not finite")
    maxwell.init_divfree(setup.m0, _h_raw(config), em.box, out=em.h)
    _set_e0(config, em)
    if config.bc == maxwell.PEC:
        maxwell.zero_boundary_tangential_e(em)
    maxwell.record_div0(em, setup.m0)


def _check_first_rate(setup: RunSetup):
    """Evaluate the first LLG right-hand side at m0 and raise NonFinite
    when it or the initial h on the body cells is not finite, naming the
    field and its first bad cell."""
    h = maxwell.interp_h_to_cells(setup.em)
    rate = dynamics.llg_rhs(setup.m0, h, setup.geom, setup.params, setup.scheme)
    for name, values in (("h on the body cells", h), ("rate dm/dt", rate)):
        _check_cells(values, f"initial {name} is not finite at t=0")


def _build_m0(config: RunConfig, geom) -> np.ndarray:
    kind = config.m0[0]
    if kind == "uniform":
        vec = np.asarray(config.m0[1:4], dtype=float)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValidationError("initial.m", "uniform direction must be nonzero")
        return presets.uniform_m(vec / norm, geom)
    if kind == "vortexish":
        return presets.vortexish_m(geom)
    if kind == "random":
        seed, *smooth = config.m0[1:]
        if seed < 0:
            raise ValidationError("initial.m", "seed must be nonnegative")
        # beyond the longest axis the filter only adds passes
        longest = max(geom.nx, geom.ny, geom.nz_total)
        if smooth and not 0 <= smooth[0] <= longest:
            raise ValidationError("initial.m", f"smoothing must be between 0 and "
                                               f"{longest} cells, the longest body axis")
        return presets.random_unit_m(geom, seed, *smooth)
    # the parser admits one more preset, "snapshot"
    try:
        _, (m,) = snapshots.read_field(config.m0[1], snapshots.FIELD_M,
                                       (geom.nx, geom.ny, geom.nz_total))
    except snapshots.SnapshotError as exc:
        raise ValidationError("initial.m", str(exc)) from exc
    return _vector_copy(m)


def _override_seed(config: RunConfig, seed: int):
    """A seed, 0 included, as the random preset's seed; it leaves any
    other m preset alone (as an old echo's retired `[run] seed` is)."""
    if config.m0[0] == "random":
        config.m0 = ("random", seed) + config.m0[2:]


def _seed_flag(config: RunConfig, seed: int):
    """The command line's --seed: `_override_seed`, refused on an m preset
    other than random, where it would do nothing."""
    if config.m0[0] != "random":
        raise ValidationError("--seed", f"only a random m preset takes a seed, "
                                        f"not {config.m0[0]}")
    _override_seed(config, seed)


def _h_raw(config: RunConfig) -> tuple:
    """The uniform raw h that `init_divfree` adds to the magnetostatic
    field: zero for `magnetostatic`, the vector for `uniform`."""
    return config.h0[1:4] if config.h0[0] == "uniform" else (0.0, 0.0, 0.0)


def _set_e0(config: RunConfig, em):
    if config.e0[0] == "uniform":
        for component, value in zip((em.ex, em.ey, em.ez), config.e0[1:4]):
            component[...] = value


def _build_current(config: RunConfig) -> Optional[AppliedCurrent]:
    """The pulse of `f = pulse ax ay az t0 width`, or None for `f = zero`."""
    if config.f[0] == "zero":
        return None
    with _refused("current.f"):
        return AppliedCurrent(config.f[1:4], *config.f[4:6])
