"""Exact gradient components of the inner-minimized objective and their
per-degree masses.

The component for product kernel i of degree d is

    g_i = -GRAD_SCALE * (alpha' K_i alpha) / rho_d^2,

always <= 0 because every K_i is PSD. GRAD_SCALE = 1/2 comes from
differentiating the half-weighted penalty; it is pinned by the
finite-difference tests and must not be changed independently of them. The
learner never forms a single component: the degree masses sum them in
closed form, and `baselines.grad_component` evaluates one from its dense
product kernel, for the uniform draw and the oracles. Where the top degree
is dense, its mass is the sum of the weights of the first position of a
top-degree draw, which the masses carry to the sampler with the alpha they
were taken at: a draw takes nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import BaseKernelSet, position_weights
from .lapack import dsymv

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
    degree-d product kernels, up to the common GRAD_SCALE factor, at `alpha`,
    of which it keeps a read-only copy. `total` is numpy's pairwise sum
    float(delta.sum()), which the degree draw takes as its total;
    construction raises ValueError unless it is finite and >= 0, NaN
    included.

    Where the top degree D is dense, `first` holds the m unnormalized weights
    of the first position of a degree-D draw, whose sum is alpha' S^(.)D
    alpha: the sampler takes that position from them. Elsewhere it is None."""

    alpha: np.ndarray
    delta: np.ndarray
    first: np.ndarray | None = None
    total: float = field(init=False)

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=np.float64)
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        total = float(self.delta.sum())
        # written so that a NaN fails it too
        if not 0.0 <= total < math.inf:
            raise ValueError(f"degree masses total {total}, not finite and nonnegative")
        object.__setattr__(self, "total", total)


def degree_masses(alpha: np.ndarray, ks: BaseKernelSet, rho: RhoSchedule) -> DegreeMasses:
    """All D+1 degree masses; the rank-one matrix alpha alpha' is never
    materialized. S^(.)0 is all ones, so degree 0 is (sum alpha)^2. A degree
    held as features, S^(.)d = Phi_d Phi_d', costs n F_d as |Phi_d' alpha|^2;
    a dense degree below the top is the quadratic form in S^(.)d, a
    symmetric matrix-vector product that reads only its lower triangle,
    n^2 / 2 entries.

    Where the top degree D is dense, S^(.)D is not held. One product over
    [alpha * Z | alpha] reads degree D-1's form alone (its lower triangle
    where dense, n^2 m / 2 multiply-adds, or Phi_(D-1)): its first m
    columns are the weights w of the first position of a degree-D draw, its
    last is degree D-1's form, and degree D's form is sum(w). The masses
    carry w for the draw."""
    if rho.D != ks.D:
        raise ValueError(f"rho covers degrees 0..{rho.D} but kernel set has D={ks.D}")
    top_is_dense = ks.top_is_dense
    forms = [float(alpha.sum()) ** 2]
    for d in range(1, ks.D - 1 if top_is_dense else ks.D + 1):
        phi = ks.features.get(d)
        if phi is not None:
            v = phi.T @ alpha
            forms.append(v @ v)
        else:
            # S^(.)d is symmetric, so its transpose is the same array in
            # Fortran order
            forms.append(alpha @ dsymv(1.0, ks.dense_powers[d].T, alpha, lower=1))
    first = None
    if top_is_dense:
        if ks.D > 1:
            weights = position_weights(ks, alpha, ks.D - 1, form=True)
            forms.append(float(weights[-1]))
            first = weights[:-1]
        else:
            # degree 0's form is (sum alpha)^2, taken above
            first = position_weights(ks, alpha, 0)
        forms.append(float(first.sum()))
    # one division per entry, as rounded as the scalar divisions
    delta = np.array(forms) / rho.rho_sq
    # a form read off a dense power is a quadratic form in a PSD matrix, and
    # may round below zero: clamp the tiny negative round-off. Sums of
    # squares are never negative
    if min(forms) < 0.0:
        delta[(delta < 0) & (delta >= -1e-12 * max(1.0, float(np.max(np.abs(delta)))))] = 0.0
        if np.any(delta < 0):
            raise FloatingPointError(f"negative degree mass beyond round-off: {delta}")
    return DegreeMasses(alpha, delta, first)


def total_mass_C(masses: DegreeMasses) -> float:
    """The l1 norm of the full gradient: all components share one sign, so it is
    GRAD_SCALE times the summed degree masses."""
    return GRAD_SCALE * masses.total

