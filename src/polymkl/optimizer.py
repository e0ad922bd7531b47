"""Projected stochastic descent over the nonnegative part of the l2 unit ball,
with a sparse weight representation, incremental combined-Gram maintenance,
and lazy iterate averaging.

The iterate theta lives on exponentially many coordinates but only touched
ones are stored: theta_i = scale * raw_i. A projection that shrinks the whole
vector is a single multiplication of `scale`; between touches of a coordinate
its value changes only through `scale`, which is what makes exact O(1)
averaging bookkeeping possible (prefix sums of the per-iteration scales).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dger

from .dataset import Dataset, MultiIndex
from .dual import DualState, assemble_combined_gram, solve_alpha, support_weights
from .gradient import (
    GradSample,
    RhoSchedule,
    degree_masses,
    importance_estimate,
    total_mass_C,
)
from .kernels import BaseKernelSet, GramMatrix, product_kernel_matrix
from .sampler import SamplerWorkspace

# rescale only when the squared norm exceeds this, so that re-projecting an
# already-projected vector is an exact no-op while staying inside the 1e-12
# feasibility budget
_PROJECT_SLACK = 1e-13

# fold the scale into the raws, flush the averaging accumulators, and restart
# the prefix sum whenever the scale drops below this; the scale decays
# geometrically under repeated projections, and letting it run away destroys
# the prefix-sum differences (raw grows like 1/scale while the per-iterate
# prefix increments shrink like scale)
_REBASE_THRESHOLD = 1e-2

# refresh the incrementally tracked sum of squared raws this often
_NORM_REFRESH = 256


class SparseTheta:
    """Nonnegative sparse weights with a global scale: theta_i = scale * raw_i.

    Raw entries are strictly positive; zeros are evicted. Mutating methods keep
    the cached sum of squared raws consistent (with periodic exact refresh).
    """

    __slots__ = ("scale", "raw", "raw_sq_sum", "_touches")

    def __init__(self, scale: float = 1.0, raw: dict[MultiIndex, float] | None = None):
        self.scale = float(scale)
        self.raw = dict(raw) if raw else {}
        if any(v <= 0 for v in self.raw.values()):
            raise ValueError("raw weights must be strictly positive")
        self.raw_sq_sum = math.fsum(v * v for v in self.raw.values())
        self._touches = 0

    @classmethod
    def from_dict(cls, values: dict[MultiIndex, float]) -> "SparseTheta":
        return cls(1.0, {idx: v for idx, v in values.items() if v != 0.0})

    def value(self, idx: MultiIndex) -> float:
        return self.scale * self.raw.get(idx, 0.0)

    def items(self):
        for idx, raw in self.raw.items():
            yield idx, self.scale * raw

    def as_dict(self) -> dict[MultiIndex, float]:
        return dict(self.items())

    @property
    def support_size(self) -> int:
        return len(self.raw)

    @property
    def norm_sq(self) -> float:
        return self.scale * self.scale * self.raw_sq_sum

    def norm(self) -> float:
        return math.sqrt(max(self.norm_sq, 0.0))

    def copy(self) -> "SparseTheta":
        return SparseTheta(self.scale, self.raw)

    def _refresh_norm(self):
        self.raw_sq_sum = math.fsum(v * v for v in self.raw.values())

    def set_raw(self, idx: MultiIndex, new_raw: float):
        """Overwrite one raw entry (evicting nonpositive values), keeping the
        cached squared sum in step."""
        old = self.raw.get(idx, 0.0)
        if new_raw <= 0.0:
            self.raw.pop(idx, None)
            new_raw = 0.0
        else:
            self.raw[idx] = new_raw
        self.raw_sq_sum += new_raw * new_raw - old * old
        self._touches += 1
        if self._touches % _NORM_REFRESH == 0:
            self._refresh_norm()

    def fold_scale(self) -> float:
        """Push the global scale into the raw entries, returning the old scale
        (callers tracking scale-linear caches must multiply them by it).
        Entries whose product underflows to zero are evicted."""
        s = self.scale
        folded = ((idx, s * v) for idx, v in self.raw.items())
        self.raw = {idx: v for idx, v in folded if v > 0.0}
        self.scale = 1.0
        self._refresh_norm()
        return s


def project_pos_l2ball(theta: SparseTheta) -> SparseTheta:
    """Euclidean projection onto {theta >= 0, ||theta||_2 <= 1}, in place:
    negative coordinates are dropped, then everything is rescaled by 1/norm if
    the norm exceeds one. Idempotent."""
    negatives = [idx for idx, v in theta.raw.items() if v < 0]
    for idx in negatives:
        theta.set_raw(idx, 0.0)
    nsq = theta.norm_sq
    if nsq > 1.0 + _PROJECT_SLACK:
        theta.scale /= math.sqrt(nsq)
    return theta


def _add_rank_one(A: np.ndarray, coef: float, z: np.ndarray):
    """A += coef * z z' in place, with no n x n temporary. BLAS ger on the
    scaled vector v = sqrt(|coef|) z with multiplier +-1 keeps a symmetric A
    exactly symmetric."""
    if not A.flags.c_contiguous:
        raise ValueError("the combined Gram must be C-contiguous to update in place")
    v = math.sqrt(abs(coef)) * z
    dger(math.copysign(1.0, coef), v, v, a=A.T, overwrite_a=True)


def default_step_size(B_estimate: float, T: int) -> float:
    """Constant step 1 / sqrt(B T) for a unit-strongly-convex potential on the
    unit ball started at zero; B defaults to the squared gradient mass at the
    start."""
    if B_estimate <= 0 or T < 1:
        raise ValueError("need B_estimate > 0 and T >= 1")
    return 1.0 / math.sqrt(B_estimate * T)


@dataclass
class RunRecord:
    iter: int
    wall_time_s: float
    J_value: float
    C_value: float
    support_size: int
    theta_norm: float


@dataclass
class RunResult:
    theta_avg: SparseTheta
    final: DualState
    records: list[RunRecord]
    converged: bool = False
    mass_exceeded_budget: bool = False
    theta_last: SparseTheta | None = None
    dual_last: DualState | None = None

    def __iter__(self):
        # allow (theta_avg, final, records) unpacking
        return iter((self.theta_avg, self.final, self.records))


class OptimizerState:
    """Single-owner mutable state for one descent run.

    Maintains the combined Gram incrementally as scale * U with
    U = sum_i (raw_i / rho^2) z_i z_i' (one rank-one update per step, in
    place), and the lazy-average bookkeeping (per-coordinate accumulators
    against a prefix sum of scales). `last_index` is the tuple whose column
    the latest nonzero update added, None before the first.
    """

    def __init__(
        self,
        ks: BaseKernelSet,
        rho: RhoSchedule,
        rng: np.random.Generator,
        step_size: float = 0.0,
    ):
        self.ks = ks
        self.rho = rho
        self.rng = rng
        self.step_size = step_size
        self.theta = SparseTheta()
        self.combined_unscaled = np.zeros((ks.n, ks.n))
        self._gram = np.empty((ks.n, ks.n))
        self.iter = 0
        self.last_index: MultiIndex | None = None
        self.records: list[RunRecord] = []
        # averaging: prefix sum of scales of iterates counted so far, the
        # number counted, and per-coordinate (accumulator, prefix-sum mark)
        self._ps = 0.0
        self._avg_count = 0
        self._avg_acc: dict[MultiIndex, float] = {}
        self._avg_mark: dict[MultiIndex, float] = {}

    def combined_gram(self) -> GramMatrix:
        """The current combined Gram, written into a buffer this state reuses:
        it stays valid until the next call, and so does any DualState solved
        from it."""
        np.multiply(self.combined_unscaled, self.theta.scale, out=self._gram)
        return GramMatrix(self._gram)

    def rebuild_combined_gram(self) -> np.ndarray:
        """The combined Gram rebuilt from the support, as one product over its
        columns."""
        return self.ks.weighted_gram(*support_weights(self.theta, self.rho))

    def _mark_entering_iterate(self):
        self._ps += self.theta.scale
        self._avg_count += 1

    def _flush_average(self, idx: MultiIndex):
        # mark defaults to 0: a never-flushed raw entry has held its value
        # since the start of the current prefix-sum epoch
        mark = self._avg_mark.get(idx, 0.0)
        self._avg_acc[idx] = self._avg_acc.get(idx, 0.0) + self.theta.raw.get(idx, 0.0) * (
            self._ps - mark
        )
        self._avg_mark[idx] = self._ps

    def _rebase(self):
        """Flush every live coordinate, fold the scale into the raws (syncing
        the cached Gram), and restart the prefix sum at zero."""
        for idx in self.theta.raw:
            self._flush_average(idx)
        self.combined_unscaled *= self.theta.fold_scale()
        self._ps = 0.0
        self._avg_mark = {idx: 0.0 for idx in self.theta.raw}

    def step(self, sample: GradSample, eta: float) -> "OptimizerState":
        """One full update: count the entering iterate toward the average, add
        -eta * sample.value to the sampled coordinate (tracking the combined
        Gram), and project back onto the feasible set."""
        if eta <= 0:
            raise ValueError("step size must be positive")
        if not math.isfinite(sample.value):
            raise FloatingPointError("non-finite gradient sample")
        self._mark_entering_iterate()
        self.iter += 1
        idx = sample.index
        delta_theta = -eta * sample.value
        if delta_theta != 0.0:
            self._flush_average(idx)
            old_raw = self.theta.raw.get(idx, 0.0)
            self.theta.set_raw(idx, old_raw + delta_theta / self.theta.scale)
            actual_raw = self.theta.raw.get(idx, 0.0)  # 0.0 if clipped away
            coef = (actual_raw - old_raw) / self.rho.rho_sq[len(idx)]
            _add_rank_one(self.combined_unscaled, coef, self.ks.product_columns([idx])[:, 0])
            self.last_index = idx
            project_pos_l2ball(self.theta)
            if self.theta.scale < _REBASE_THRESHOLD:
                self._rebase()
        return self

    def check_combined_gram(self, rel_tol: float = 1e-9):
        """Raise FloatingPointError if the incremental Gram scale * U has
        drifted from a rebuild R over the support, or if the column of
        `last_index` disagrees with its dense product kernel. The rebuild
        shares its columns with `step`; the dense kernel does not, so a wrong
        column cannot pass both checks."""
        # ||scale U - R|| / ||R||, formed as scale ||U - R / scale|| in R's
        # own buffer, so the check holds one n x n array at a time
        residual = self.rebuild_combined_gram()
        denom = max(np.linalg.norm(residual), 1e-300)
        residual /= self.theta.scale
        residual -= self.combined_unscaled
        drift = self.theta.scale * np.linalg.norm(residual) / denom
        if drift > rel_tol:
            raise FloatingPointError(f"incremental combined Gram drifted: {drift:.3e}")
        del residual
        if self.last_index is not None:
            residual = product_kernel_matrix(self.ks, self.last_index).values
            denom = max(np.linalg.norm(residual), 1e-300)
            _add_rank_one(residual, -1.0, self.ks.product_columns([self.last_index])[:, 0])
            error = np.linalg.norm(residual) / denom
            if not error <= rel_tol:
                raise FloatingPointError(
                    f"column of {self.last_index} disagrees with its dense kernel: {error:.3e}"
                )

    def average_theta(self) -> SparseTheta:
        """The average of the iterates counted so far, reconstructed exactly from
        the prefix sums; does not disturb the running bookkeeping."""
        if self._avg_count < 1:
            raise ValueError("no iterates have been counted yet")
        out: dict[MultiIndex, float] = {}
        for idx in set(self._avg_acc) | set(self.theta.raw):
            acc = self._avg_acc.get(idx, 0.0)
            mark = self._avg_mark.get(idx, 0.0)
            acc += self.theta.raw.get(idx, 0.0) * (self._ps - mark)
            if acc != 0.0:
                out[idx] = acc / self._avg_count
        return SparseTheta.from_dict(out)

    def mark_tail_iterates(self, count: int):
        """Count `count` further iterates equal to the current one (used when a
        run stops early with a zero gradient)."""
        if count > 0:
            self._ps += count * self.theta.scale
            self._avg_count += count


def average_theta(state: OptimizerState) -> SparseTheta:
    return state.average_theta()


def step(state: OptimizerState, sample: GradSample, eta: float) -> OptimizerState:
    return state.step(sample, eta)


def run(config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule) -> RunResult:
    """Full descent loop: per iteration, an inner solve at the current iterate,
    the degree masses, one proportional-to-|gradient| draw, and a projected
    single-coordinate update. Returns the averaged iterate, the inner solve at
    it, and per-iteration records. Deterministic given config.seed.

    `config` needs fields T, step (None for the default), seed,
    checkpoint_every, and optionally mass_budget_factor.
    """
    T = int(config.T)
    if T < 1:
        raise ValueError("T must be >= 1")
    checkpoint_every = int(getattr(config, "checkpoint_every", 100) or 100)
    mass_budget_factor = float(getattr(config, "mass_budget_factor", 10.0))
    rng = np.random.default_rng([int(config.seed), 1])
    state = OptimizerState(ks, rho, rng)
    workspace = SamplerWorkspace(ks, rho, rng)
    y = data.targets

    started = time.perf_counter()
    C0 = None
    converged = False
    mass_exceeded = False
    try:
        for k in range(1, T + 1):
            dual = solve_alpha(state.combined_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            C = total_mass_C(masses)
            if C0 is None:
                C0 = C
                if state.step_size <= 0:
                    override = getattr(config, "step", None)
                    if override:
                        state.step_size = float(override)
                    else:
                        state.step_size = default_step_size(C0 * C0, T) if C0 > 0 else 1.0
            if C > mass_budget_factor * max(C0, 1e-300) and not mass_exceeded:
                mass_exceeded = True
                warnings.warn(
                    f"gradient mass {C:.3e} exceeded {mass_budget_factor:.1f}x its "
                    f"starting value {C0:.3e}; step size may be too optimistic",
                    RuntimeWarning,
                    stacklevel=2,
                )
            state.records.append(
                RunRecord(
                    iter=k,
                    wall_time_s=time.perf_counter() - started,
                    J_value=dual.J_value,
                    C_value=C,
                    support_size=state.theta.support_size,
                    theta_norm=state.theta.norm(),
                )
            )
            if C <= 0:
                # zero gradient: every later iterate equals this one
                state.mark_tail_iterates(T - k + 1)
                converged = True
                break
            idx = workspace.draw(dual.alpha, masses)
            sample = importance_estimate(idx, masses)
            state.step(sample, state.step_size)
            if checkpoint_every and k % checkpoint_every == 0:
                state.check_combined_gram()
    except Exception as exc:
        exc.partial_records = state.records  # let the harness flush what exists
        raise

    theta_avg = state.average_theta()
    final = solve_alpha(assemble_combined_gram(theta_avg, ks, rho), y)
    theta_last = state.theta.copy()
    dual_last = solve_alpha(GramMatrix(state.rebuild_combined_gram()), y)
    return RunResult(
        theta_avg=theta_avg,
        final=final,
        records=state.records,
        converged=converged,
        mass_exceeded_budget=mass_exceeded,
        theta_last=theta_last,
        dual_last=dual_last,
    )
