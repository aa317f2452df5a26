"""Bilayer domain and grid bookkeeping.

The magnetic body is a rectangular box B x ]-l_minus, l_plus[ split by a
zero-thickness spacer at z = 0.  Magnetization lives at cell centers in an
array of shape (nx, ny, nz_total, 3); z-index k < nz_minus is the lower
slab, k >= nz_minus the upper one, and the plane z = 0 is always a cell
face shared by the two slabs, never a cell center.

The spacer surface energies act on a layer of `layer_cells` whole cells on
each side of the spacer (`layer_slice`): eta/dz cells deep when the
geometry has a thin layer, and one cell deep (the sharp layer, the thin
layer at eta = dz) when it does not.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EtaTooLarge, NonTilingGrid

_REL_TOL = 1e-9
# the largest distance from a whole number of steps a ratio may have: k*dt
# over dt lands within about 1.2e-7 of k for every k up to 1e9
_ABS_TOL = 1e-6


@dataclass(frozen=True)
class GeometryConfig:
    base_lx: float
    base_ly: float
    l_minus: float
    l_plus: float
    nx: int
    ny: int
    nz_minus: int
    nz_plus: int
    eta: Optional[float] = None
    trace_order: int = 1   # only 1 is accepted


@dataclass(frozen=True)
class DomainGeometry:
    """Immutable grid description; safe to share between workers."""

    base_lx: float
    base_ly: float
    l_minus: float
    l_plus: float
    nx: int
    ny: int
    nz_minus: int
    nz_plus: int
    dx: float
    dy: float
    dz: float
    eta: Optional[float]
    layer_cells: int   # eta/dz with a thin layer, else 1

    @property
    def nz_total(self) -> int:
        return self.nz_minus + self.nz_plus

    @property
    def spacer_index(self) -> int:
        """z-index of the first cell above the spacer face."""
        return self.nz_minus

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def face_area(self) -> float:
        """Footprint of one cell column on the spacer, dx*dy."""
        return self.dx * self.dy

    def z_centers(self) -> np.ndarray:
        """Cell-center z coordinates, negative below the spacer."""
        k = np.arange(self.nz_total)
        return (k - self.nz_minus + 0.5) * self.dz

    def layer_slice(self) -> slice:
        """z-slice of the 2*layer_cells cell layers hugging the spacer."""
        return slice(self.nz_minus - self.layer_cells, self.nz_minus + self.layer_cells)

    def field_shape(self) -> tuple:
        return (self.nx, self.ny, self.nz_total, 3)


def _is_multiple(value: float, step: float) -> bool:
    """Whether value is a whole number of steps, to a relative 1e-9 of
    the step count and at most 1e-6 steps (the relative bound alone grows
    with the count, and beyond 5e8 steps passes a ratio halfway between
    two counts); a ratio that overflows is not."""
    ratio = value / step
    if not np.isfinite(ratio):
        return False
    return abs(ratio - round(ratio)) <= min(_REL_TOL * max(1.0, abs(ratio)), _ABS_TOL)


def build_geometry(config: GeometryConfig) -> DomainGeometry:
    """Validate a geometry request and derive grid spacings and the depth
    of the spacer layer, `layer_cells`: eta/dz cells with a thin layer, one
    without.

    Raises NonTilingGrid when the two slabs demand different dz, when
    eta is not a whole number of cell layers, when trace_order is not 1
    or when numpy could not index a field on the cells, and EtaTooLarge
    when the thin layer would not fit inside a slab.
    """
    # written so that NaN fails each test
    for name in ("base_lx", "base_ly", "l_minus", "l_plus"):
        if not 0 < getattr(config, name) < math.inf:
            raise NonTilingGrid(f"{name} must be positive and finite")
    for name in ("nx", "ny", "nz_minus", "nz_plus"):
        if getattr(config, name) < 1:
            raise NonTilingGrid(f"{name} must be at least 1")
    # numpy indexes no array of more bytes than intp holds, whatever the memory
    nz = config.nz_minus + config.nz_plus
    if 24 * config.nx * config.ny * nz > np.iinfo(np.intp).max:
        raise NonTilingGrid(f"a body of {config.nx} x {config.ny} x {nz} cells is too "
                            f"large for numpy to index")
    if config.trace_order != 1:
        raise NonTilingGrid("trace_order must be 1")

    dx = config.base_lx / config.nx
    dy = config.base_ly / config.ny
    dz_minus = config.l_minus / config.nz_minus
    dz_plus = config.l_plus / config.nz_plus
    if abs(dz_minus - dz_plus) > _REL_TOL * dz_minus:
        raise NonTilingGrid(
            f"slab spacings differ: l_minus/nz_minus={dz_minus:g} "
            f"but l_plus/nz_plus={dz_plus:g}"
        )
    dz = dz_minus

    layer_cells = 1
    if config.eta is not None:
        if not 0 < config.eta < math.inf:
            raise NonTilingGrid("eta must be positive and finite when given")
        if config.eta > min(config.l_minus, config.l_plus) + _REL_TOL * dz:
            raise EtaTooLarge(
                f"eta={config.eta:g} exceeds the smaller slab height "
                f"{min(config.l_minus, config.l_plus):g}"
            )
        if not _is_multiple(config.eta, dz):
            raise NonTilingGrid(f"eta={config.eta:g} is not a multiple of dz={dz:g}")
        layer_cells = int(round(config.eta / dz))

    return DomainGeometry(
        base_lx=config.base_lx,
        base_ly=config.base_ly,
        l_minus=config.l_minus,
        l_plus=config.l_plus,
        nx=config.nx,
        ny=config.ny,
        nz_minus=config.nz_minus,
        nz_plus=config.nz_plus,
        dx=dx,
        dy=dy,
        dz=dz,
        eta=config.eta,
        layer_cells=layer_cells,
    )

