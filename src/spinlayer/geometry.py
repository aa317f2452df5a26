"""Bilayer domain and grid bookkeeping.

The magnetic body is a rectangular box B x ]-l_minus, l_plus[ split by a
zero-thickness spacer at z = 0.  Magnetization lives at cell centers in an
array of shape (nx, ny, nz_total, 3); z-index k < nz_minus is the lower
slab, k >= nz_minus the upper one, and the plane z = 0 is always a cell
face shared by the two slabs, never a cell center.

The spacer surface energies act on a layer of whole cells on each side of
the spacer (`layer_slice`): one cell deep in sharp mode, eta/dz cells deep
in thin-layer mode.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EtaTooLarge, NonTilingGrid, ThinLayerInactive

_REL_TOL = 1e-9


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
    eta_cells: int

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

    def layer_slice(self, cells: Optional[int] = None) -> slice:
        """z-slice of the 2*cells cell layers hugging the spacer.

        cells defaults to the thin layer's eta_cells; sharp mode uses 1.
        """
        if cells is None:
            cells = self.eta_cells
        if cells < 1:
            raise ThinLayerInactive("geometry was built without a thin layer")
        return slice(self.nz_minus - cells, self.nz_minus + cells)

    def field_shape(self) -> tuple:
        return (self.nx, self.ny, self.nz_total, 3)


def _is_multiple(value: float, step: float) -> bool:
    ratio = value / step
    return abs(ratio - round(ratio)) <= _REL_TOL * max(1.0, abs(ratio))


def build_geometry(config: GeometryConfig) -> DomainGeometry:
    """Validate a geometry request and derive grid spacings.

    Raises NonTilingGrid when the two slabs demand different dz, when
    eta is not a whole number of cell layers or when trace_order is not
    1, and EtaTooLarge when the thin layer would not fit inside a slab.
    """
    for name in ("base_lx", "base_ly", "l_minus", "l_plus"):
        if getattr(config, name) <= 0:
            raise NonTilingGrid(f"{name} must be positive")
    for name in ("nx", "ny", "nz_minus", "nz_plus"):
        if getattr(config, name) < 1:
            raise NonTilingGrid(f"{name} must be at least 1")
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

    eta_cells = 0
    if config.eta is not None:
        if config.eta <= 0:
            raise NonTilingGrid("eta must be positive when given")
        if config.eta > min(config.l_minus, config.l_plus) + _REL_TOL * dz:
            raise EtaTooLarge(
                f"eta={config.eta:g} exceeds the smaller slab height "
                f"{min(config.l_minus, config.l_plus):g}"
            )
        if not _is_multiple(config.eta, dz):
            raise NonTilingGrid(f"eta={config.eta:g} is not a multiple of dz={dz:g}")
        eta_cells = int(round(config.eta / dz))

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
        eta_cells=eta_cells,
    )

