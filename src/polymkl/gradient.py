"""Exact gradient components of the inner-minimized objective, per-degree
gradient masses, and the single-coordinate importance-sampled estimate.

The component for product kernel i of degree d is

    g_i = -GRAD_SCALE * (alpha' K_i alpha) / rho_d^2,

always <= 0 because every K_i is PSD. GRAD_SCALE = 1/2 comes from
differentiating the half-weighted penalty; it is pinned by the
finite-difference tests and must not be changed independently of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MultiIndex
from .kernels import BaseKernelSet, GramMatrix

GRAD_SCALE = 0.5


@dataclass(frozen=True)
class RhoSchedule:
    """Degree-dependent squared scale factors rho_d^2 for d = 0..D."""

    rho_sq: np.ndarray

    def __post_init__(self):
        rho_sq = np.asarray(self.rho_sq, dtype=np.float64)
        # written so that a NaN fails it too
        if rho_sq.ndim != 1 or rho_sq.size < 1 or not np.all((rho_sq > 0) & (rho_sq < np.inf)):
            raise ValueError("rho_sq must be a nonempty vector of positive finite reals")
        object.__setattr__(self, "rho_sq", rho_sq)

    @property
    def D(self) -> int:
        return self.rho_sq.size - 1

    def scaled(self, lam: float) -> "RhoSchedule":
        """Fold a ridge strength lambda into the schedule (rho^2 -> lam rho^2),
        equivalent to multiplying the whole penalty by lambda."""
        if lam <= 0:
            raise ValueError("lambda must be positive")
        return RhoSchedule(self.rho_sq * lam)

    @staticmethod
    def uniform(D: int) -> "RhoSchedule":
        return RhoSchedule(np.ones(D + 1))


@dataclass(frozen=True)
class DegreeMasses:
    """delta[d] = alpha' S^(.)d alpha / rho_d^2: the total |gradient| mass of all
    degree-d product kernels, up to the common GRAD_SCALE factor."""

    delta: np.ndarray
    total: float


@dataclass(frozen=True)
class GradSample:
    """One-nonzero-coordinate gradient estimate: value on `index`, zero elsewhere.

    With proportional-to-|gradient| sampling the value is -mass, where mass is
    the gradient's l1 norm at sampling time, so the estimate's norm equals mass
    exactly.
    """

    index: MultiIndex
    value: float
    mass: float


def grad_component(alpha: np.ndarray, K_i: GramMatrix | np.ndarray, rho_sq_d: float) -> float:
    values = K_i.values if isinstance(K_i, GramMatrix) else np.asarray(K_i)
    return float(-GRAD_SCALE * (alpha @ values @ alpha) / rho_sq_d)


def degree_masses(alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule) -> DegreeMasses:
    """All D+1 degree masses; the rank-one matrix alpha alpha' is never
    materialized. S^(.)0 is all ones, so degree 0 is (sum alpha)^2. A degree
    held as features, S^(.)d = Phi_d Phi_d', costs n F_d as |Phi_d' alpha|^2;
    a dense degree costs n^2 as the quadratic form in S^(.)d."""
    if rho.D != ks.D:
        raise ValueError(f"rho covers degrees 0..{rho.D} but kernel set has D={ks.D}")
    forms = [float(alpha.sum()) ** 2]
    for d in range(1, ks.D + 1):
        phi = ks.features.get(d)
        if phi is not None:
            v = phi.T @ alpha
            forms.append(v @ v)
        else:
            forms.append(alpha @ (ks.dense_powers[d] @ alpha))
    # one division per entry, as rounded as the scalar divisions
    delta = np.array(forms) / rho.rho_sq
    if ks.dense_powers:
        # quadratic forms in PSD matrices; clamp the tiny negative round-off.
        # The other masses are sums of squares and never negative.
        delta[(delta < 0) & (delta >= -1e-12 * max(1.0, float(np.max(np.abs(delta)))))] = 0.0
        if np.any(delta < 0):
            raise FloatingPointError(f"negative degree mass beyond round-off: {delta}")
    return DegreeMasses(delta=delta, total=float(delta.sum()))


def total_mass_C(masses: DegreeMasses) -> float:
    """The l1 norm of the full gradient: all components share one sign, so it is
    GRAD_SCALE times the summed degree masses."""
    return GRAD_SCALE * masses.total


def importance_estimate(sampled: MultiIndex, masses: DegreeMasses) -> GradSample:
    """Estimate after drawing `sampled` with probability |g_i| / C: the single
    surviving coordinate carries g_i / q_i = -C."""
    C = total_mass_C(masses)
    if C <= 0:
        raise ZeroDivisionError(
            "total gradient mass is zero; caller must treat this as converged"
        )
    return GradSample(index=tuple(sampled), value=-C, mass=C)
