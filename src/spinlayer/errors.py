"""Exception types shared across the simulator, `first_bad_cell`, which
the NonFinite messages use to name a cell, `_check_cells`, the one rule
that rejects an initial field with a cell that is not finite, and
`check_finite`, the one rule that rejects a row of diagnostics with a
value that is not finite."""

import math

import numpy as np


class SimulationError(Exception):
    """Base class for all spinlayer errors."""


class NonTilingGrid(SimulationError):
    """Grid spacings do not tile the requested extents exactly."""


class EtaTooLarge(SimulationError):
    """Thin-layer thickness exceeds a slab height."""


class CFLViolation(SimulationError):
    """Time step violates a stability bound."""


class NonFinite(SimulationError):
    """A field acquired NaN/Inf values or a zero-norm cell was renormalized."""


class SolverDiverged(SimulationError):
    """Poisson projection failed to reach the requested tolerance."""


class ConfigError(SimulationError):
    """Base class for run-configuration problems (exit code 2)."""


class ParseError(ConfigError):
    """Malformed configuration text.

    Carries the 1-based line number of the first offending line.
    """

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ConfigError):
    """Configuration parsed but a field failed validation."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def first_bad_cell(bad: np.ndarray) -> tuple:
    """Index of the first entry flagged in the boolean mask `bad`."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _check_cells(field: np.ndarray, what: str):
    """Raise NonFinite "<what>, first at cell <cell>" when the (..., 3)
    field is not finite, naming its first such cell."""
    bad = ~np.isfinite(field).all(axis=-1)
    if bad.any():
        raise NonFinite(f"{what}, first at cell {first_bad_cell(bad)}")


def check_finite(names, values, what: str, *args):
    """Raise NonFinite if any of `values` (named, in order, by `names`) is
    not finite: "<count> <what> are not finite, first <name>", where `what`
    is formatted with `args` only on failure."""
    if all(map(math.isfinite, values)):
        return
    bad = [name for name, v in zip(names, values, strict=True) if not math.isfinite(v)]
    raise NonFinite(f"{len(bad)} {what.format(*args)} are not finite, first {bad[0]}")
