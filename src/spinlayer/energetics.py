"""Every energy functional of the model.

Volume terms (exchange, anisotropy, Maxwell field energy), the two spacer
surface energies (quadratic + biquadratic super-exchange, surface
anisotropy) volumized over the cell layers hugging the spacer, the
saturation penalty, and the assembled total.

Discretization notes:

* The exchange sum runs over interior cell faces only, one face one term,
  with no face across the spacer plane and none across the outer
  boundary.  Its exact per-cell gradient is then the homogeneous-Neumann
  7-point Laplacian used by the effective-field module.
* The surface energies live on `cells` whole cell layers per side with
  weight 1/(2 eta), eta = cells*dz: eta/dz cells in thin-layer mode, one
  cell in sharp mode.  With one cell the layer sums are exactly the
  midpoint-rule spacer integrals of the adjacent-cell traces (footprint
  dx*dy per column): super-exchange once over the spacer, surface
  anisotropy over both faces.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import DomainGeometry
from .summation import esum, fsum

_PSD_TOL = 1e-10

SHARP = "sharp"
THIN_LAYER = "thin_layer"
BC_MODES = (SHARP, THIN_LAYER)


@dataclass(frozen=True)
class MaterialParams:
    """Material and model constants.

    k_matrix is the one symmetric positive-semidefinite 3x3 anisotropy
    matrix of the body (the anisotropy is uniform), or None.  penalty_k is
    the saturation penalty coefficient; sigma the conductivity inside the
    body.
    """

    a_exch: float
    k_matrix: Optional[np.ndarray]
    ks: float
    j1: float
    j2: float
    alpha: float
    mu0: float = 1.0
    eps0: float = 1.0
    sigma: float = 0.0
    penalty_k: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.mu0 <= 0 or self.eps0 <= 0:
            raise ValueError("mu0 and eps0 must be positive")
        for name in ("a_exch", "ks", "j1", "j2", "sigma", "penalty_k"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.k_matrix is not None:
            k = np.array(self.k_matrix, dtype=float)   # kept as a validated copy
            if k.shape != (3, 3):
                raise ValueError(f"k_matrix must be one 3x3 matrix, not shape {k.shape}")
            asym = np.max(np.abs(k - k.T))
            if asym > _PSD_TOL:
                raise ValueError(f"k_matrix not symmetric (max |K-K^T| = {asym:g})")
            eigmin = np.min(np.linalg.eigvalsh(k))
            if eigmin < -_PSD_TOL:
                raise ValueError(f"k_matrix not positive semidefinite (min eig = {eigmin:g})")
            object.__setattr__(self, "k_matrix", k)

    @property
    def speed_of_light(self) -> float:
        return 1.0 / np.sqrt(self.mu0 * self.eps0)


def uniform_k_matrix(k: np.ndarray, geom: DomainGeometry) -> np.ndarray:
    """The anisotropy matrix k as a float 3x3 copy, the form
    MaterialParams.k_matrix takes (and validates).  geom is not used."""
    return np.array(k, dtype=float)


def _scalars(tmp: Optional[np.ndarray], shape: tuple, count: int) -> list:
    """`count` scalar fields of `shape` carved from the flat float buffer
    tmp, or fresh ones when tmp is None."""
    n = math.prod(shape)
    if tmp is None:
        tmp = np.empty(count * n)
    return [tmp[i * n:(i + 1) * n].reshape(shape) for i in range(count)]


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Per-cell a . b of two (..., 3) fields into out, summed in component
    order (as np.sum over the last axis does); tmp is scratch shaped like
    out."""
    np.multiply(a[..., 0], b[..., 0], out=out)
    np.multiply(a[..., 1], b[..., 1], out=tmp)
    out += tmp
    np.multiply(a[..., 2], b[..., 2], out=tmp)
    out += tmp
    return out


@dataclass(frozen=True)
class EnergyBreakdown:
    exchange: float
    anisotropy: float
    maxwell_h: float
    maxwell_e: float
    surf_anis: float
    superexch_q: float
    superexch_biq: float
    penalty: float
    total: float

    COLUMNS = (
        "exchange", "anisotropy", "maxwell_h", "maxwell_e", "surf_anis",
        "superexch_q", "superexch_biq", "penalty", "total",
    )

    @staticmethod
    def assemble(exchange=0.0, anisotropy=0.0, maxwell_h=0.0, maxwell_e=0.0,
                 surf_anis=0.0, superexch_q=0.0, superexch_biq=0.0,
                 penalty=0.0) -> "EnergyBreakdown":
        total = fsum([exchange, anisotropy, maxwell_h, maxwell_e,
                      surf_anis, superexch_q, superexch_biq, penalty])
        return EnergyBreakdown(exchange, anisotropy, maxwell_h, maxwell_e,
                               surf_anis, superexch_q, superexch_biq,
                               penalty, total)

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, c) for c in self.COLUMNS)


def exchange_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams) -> float:
    """(A/2) * sum over interior faces of |difference quotient|^2 * dV."""
    if params.a_exch == 0.0:
        return 0.0
    dV = geom.cell_volume
    s = geom.spacer_index
    acc = 0.0
    dmx = m[1:, :, :, :] - m[:-1, :, :, :]
    acc += esum(dmx * dmx) / geom.dx**2
    dmy = m[:, 1:, :, :] - m[:, :-1, :, :]
    acc += esum(dmy * dmy) / geom.dy**2
    # z faces per slab; the spacer face carries no exchange coupling
    dml = m[:, :, 1:s, :] - m[:, :, : s - 1, :]
    dmu = m[:, :, s + 1:, :] - m[:, :, s:-1, :]
    acc += (esum(dml * dml) + esum(dmu * dmu)) / geom.dz**2
    return 0.5 * params.a_exch * dV * acc


def apply_k(params: MaterialParams, m: np.ndarray, out: Optional[np.ndarray] = None,
            tmp: Optional[np.ndarray] = None) -> np.ndarray:
    """K m per cell; zeros when no anisotropy is configured.

    `out` (not aliasing m) receives the result; `tmp` (a flat float array
    of at least m.size // 3 entries) makes the call allocation-free.
    """
    if out is None:
        out = np.empty_like(m)
    if params.k_matrix is None:
        out[...] = 0.0
        return out
    k = params.k_matrix
    (t,) = _scalars(tmp, m.shape[:-1], 1)
    for i in range(3):
        # (K_i0 m0 + K_i2 m2) + K_i1 m1: the summation order of
        # np.einsum("ij,...j->...i"), so both agree bit for bit
        o = out[..., i]
        np.multiply(m[..., 0], k[i, 0], out=o)
        np.multiply(m[..., 2], k[i, 2], out=t)
        o += t
        np.multiply(m[..., 1], k[i, 1], out=t)
        o += t
    return out


def anisotropy_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams) -> float:
    if params.k_matrix is None:
        return 0.0
    km = apply_k(params, m)
    return 0.5 * geom.cell_volume * esum(km * m)


def layer_cells(geom: DomainGeometry, bc_mode: str) -> int:
    """Depth in cells of the surface layer on each side of the spacer:
    1 in sharp mode (the thin layer at eta = dz), eta/dz in thin-layer
    mode."""
    if bc_mode not in BC_MODES:
        raise ValueError(f"unknown bc_mode {bc_mode!r} (choose from {BC_MODES})")
    return 1 if bc_mode == SHARP else geom.eta_cells


def thin_layer_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams,
                      split: bool = False, cells: Optional[int] = None):
    """Volumized surface energy over the 2*cells layers hugging the spacer.

    cells defaults to the geometry's thin layer; sharp mode uses 1.  With
    split=True returns (surface-anisotropy part, quadratic part,
    biquadratic part) so the breakdown reports the same columns in both
    boundary modes.
    """
    if cells is None:
        cells = geom.eta_cells
    ml = m[:, :, geom.layer_slice(cells), :]
    ms = ml[:, :, ::-1, :]                  # reflection across the spacer
    w = geom.face_area / (2.0 * cells)      # dV / (2 eta)

    e_ks = e_q = e_biq = 0.0
    if params.ks != 0.0:
        # |m x nu|^2 with nu = +-e_z is the in-plane part of |m|^2
        inplane = ml[..., :2]
        e_ks = params.ks * w * esum(inplane * inplane)
    if params.j1 != 0.0:
        jump = ml - ms
        e_q = 0.5 * params.j1 * w * esum(jump * jump)
    if params.j2 != 0.0:
        wedge = np.cross(ml, ms)
        e_biq = params.j2 * w * esum(wedge * wedge)
    if split:
        return e_ks, e_q, e_biq
    return fsum([e_ks, e_q, e_biq])


def penalty_energy(m: np.ndarray, geom: DomainGeometry, params: MaterialParams) -> float:
    """(k/4) * integral of (|m|^2 - 1)^2."""
    if params.penalty_k == 0.0:
        return 0.0
    dev = np.sum(m * m, axis=-1) - 1.0
    return 0.25 * params.penalty_k * geom.cell_volume * esum(dev * dev)


def maxwell_energy(em, params: MaterialParams) -> Tuple[float, float]:
    """(field energy of h, field energy of e) over the computational box."""
    dV = em.box.cell_volume
    e_h = 0.5 * dV * fsum([esum(em.hx * em.hx), esum(em.hy * em.hy), esum(em.hz * em.hz)])
    e_e = (0.5 * params.eps0 / params.mu0) * dV * fsum(
        [esum(em.ex * em.ex), esum(em.ey * em.ey), esum(em.ez * em.ez)])
    return e_h, e_e


def total_energy(m: np.ndarray, em, geom: DomainGeometry, params: MaterialParams,
                 bc_mode: str = SHARP) -> EnergyBreakdown:
    """Assemble the full energy for the boundary mode.

    The surface energies sit on the one-cell layer in sharp mode and on
    the eta layer in thin-layer mode; the penalty term enters whenever
    params.penalty_k is nonzero, the energy whose gradient
    `effective_field.assemble_h_tot` is.
    """
    e_h = e_e = 0.0
    if em is not None:
        e_h, e_e = maxwell_energy(em, params)
    sa, sq, sb = thin_layer_energy(m, geom, params, split=True,
                                   cells=layer_cells(geom, bc_mode))
    return EnergyBreakdown.assemble(
        exchange=exchange_energy(m, geom, params),
        anisotropy=anisotropy_energy(m, geom, params),
        maxwell_h=e_h,
        maxwell_e=e_e,
        surf_anis=sa,
        superexch_q=sq,
        superexch_biq=sb,
        penalty=penalty_energy(m, geom, params),
    )
