"""Projected stochastic descent over the nonnegative part of the l2 unit ball,
with the iterate held as a plain vector over the tuples it has touched and
the combined Gram kept in the span of its support. One loop serves the
proportional sampler and uniform coordinate descent; only the draw differs
(`proportional_draws` here, `baselines.uniform_draws`).

The iterate theta lives on exponentially many coordinates, but only touched
ones are stored, in order of first touch: each tuple's weight, its running
sum over the counted iterates, the `SupportCache` slot of its monomial, and
1/rho_|i|^2. Every gradient component is <= 0, as each K_i is PSD, so a step
raises one weight, and the projection onto the ball rescales the whole
vector by 1/||theta|| when ||theta|| > 1. The averaged iterate is the
running sum over the count. A weight that underflows to 0 under a rescale
leaves the support and keeps its place and its column.

The combined Gram is C diag(w) C'. The `SupportCache` holds one column of C
per distinct monomial of the support (permutations of a tuple, and tuples
that differ only by the constant kernel, share one) and their Gram G = C'C;
a monomial's first step adds its column and a row of G in O(n s). The
per-monomial weights w are summed afresh from the vector at each solve, so
no cached weight can drift. The inner solve works on these through
Woodbury's identity. The two final solves, at the averaged and at the last
iterate, take the same form, assembled afresh from theta by
`assemble_combined_gram`. So the loop allocates no n x n array. The
checkpoint checks the cache against itself and against theta: a probe
through columns built afresh, each tuple's slot and 1/rho^2 exactly, and
the last updated column against its kernel's diagonal and one row,
computed from the inputs in O(n k).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, MultiIndex
from .dual import DualState, SupportGram, assemble_combined_gram
from .dual import solve_alpha, support_columns
from .gradient import DegreeMasses, RhoSchedule, degree_masses, total_mass_C
# product_kernel_matrix is unused here, but the benchmark's tracer
# (bench/measure.py) wraps this module attribute by name, so it stays imported
from .kernels import (  # noqa: F401
    BaseKernelSet,
    KernelError,
    monomial_key,
    product_kernel_cross,
    product_kernel_matrix,
)
from .sampler import SamplerWorkspace

# rescale only when the squared norm exceeds this, so that re-projecting an
# already-projected vector is an exact no-op while staying inside the 1e-12
# feasibility budget
_PROJECT_SLACK = 1e-13

# the relative tolerance of every comparison in `check_combined_gram`
_GRAM_CHECK_RTOL = 1e-9

# flag (warn, never fail) a run whose gradient mass exceeds this multiple of
# its starting value
MASS_BUDGET_FACTOR = 10.0


class SparseTheta:
    """A read-only nonnegative sparse weight vector, such as the iterate a run
    returns: its tuples with their weights, each strictly positive and
    finite."""

    __slots__ = ("_values",)

    def __init__(self, values: dict[MultiIndex, float] | None = None):
        self._values = dict(values) if values else {}
        # written so that a NaN fails it too
        if not all(0.0 < v < math.inf for v in self._values.values()):
            raise ValueError("weights must be strictly positive and finite")

    @classmethod
    def from_dict(cls, values: dict[MultiIndex, float]) -> "SparseTheta":
        return cls({idx: v for idx, v in values.items() if v != 0.0})

    def value(self, idx: MultiIndex) -> float:
        return self._values.get(idx, 0.0)

    def items(self):
        return iter(self._values.items())

    def as_dict(self) -> dict[MultiIndex, float]:
        return dict(self._values)

    @property
    def support_size(self) -> int:
        return len(self._values)

    def norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self._values.values()))


def project_pos_l2ball(theta: np.ndarray, norm_sq: float | None = None) -> float:
    """Euclidean projection of a nonnegative vector onto {theta >= 0,
    ||theta||_2 <= 1}, in place: the rescale by 1/norm when the norm exceeds
    one. Returns the factor applied, 1.0 when none. `norm_sq` is theta . theta
    when the caller has it already. Idempotent. An entry above about 1.3e154
    squares to infinity, so a squared norm that is not finite is taken again
    as the norm of the entries scaled by the largest (`math.hypot`)."""
    if norm_sq is None:
        norm_sq = float(np.vdot(theta, theta))
    factor = 1.0
    if norm_sq > 1.0 + _PROJECT_SLACK:
        norm = math.sqrt(norm_sq) if norm_sq < math.inf else math.hypot(*theta)
        if norm == math.inf:
            raise FloatingPointError("norm of the weights overflows")
        factor = 1.0 / norm
        theta *= factor
    return factor


def default_step_size(C0: float, T: int) -> float:
    """Constant step 1 / sqrt(C0^2 T) for a unit-strongly-convex potential on
    the unit ball started at zero, C0 the gradient mass at the start. Where
    C0^2 T under- or overflows, the same step as 1 / (C0 sqrt(T))."""
    if not (0.0 < C0 < math.inf and T >= 1):
        raise ValueError(f"need 0 < C0 < inf and T >= 1, got C0={C0}, T={T}")
    B = C0 * C0
    if 0.0 < B * T < math.inf:
        return 1.0 / math.sqrt(B * T)
    return 1.0 / (C0 * math.sqrt(T))


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
    # the constant step of the descent loop, or "line-search" for the
    # full-gradient solver
    step_size: float | str
    theta_last: SparseTheta
    dual_last: DualState
    converged: bool = False
    mass_exceeded_budget: bool = False


class SupportCache:
    """The columns of the combined Gram C diag(w) C' of theta's support: one
    column of C per distinct monomial, in the slot its `monomial_key` maps
    to, and their Gram G = C'C. Its one event is a monomial's first column
    with its row of G, in O(n s). It holds no weight; `gram` takes them. No
    column is dropped: a monomial with no tuple left keeps its column."""

    def __init__(self, ks: BaseKernelSet):
        self.ks = ks
        # n x capacity columns, in Fortran order so a column is contiguous
        self._slot_of_key: dict[MultiIndex, int] = {}
        self._C = np.empty((ks.n, 0), order="F")
        self._G = np.empty((0, 0))

    @property
    def num_columns(self) -> int:
        return len(self._slot_of_key)

    @property
    def monomials(self) -> list[MultiIndex]:
        """The cached monomial keys, in column order."""
        return list(self._slot_of_key)

    def gram(self, weights: np.ndarray) -> SupportGram:
        """The combined Gram with one weight per slot, in support form. The
        slots it covers are never rewritten, so it stays valid."""
        s = self.num_columns
        return SupportGram(self._C[:, :s], self._G[:s, :s], weights)

    def slots(self, keys: list[MultiIndex]) -> np.ndarray:
        """The slots of monomials `keys`, -1 for one without a column. Adds
        no column."""
        return np.array([self._slot_of_key.get(key, -1) for key in keys], dtype=np.intp)

    def column(self, idx: MultiIndex) -> np.ndarray:
        """The cached column of the monomial of tuple idx."""
        return self._C[:, self._slot_of_key[monomial_key(idx)]]

    def slot(self, key: MultiIndex) -> int:
        """The slot of monomial `key`, its column added on first sight."""
        slot = self._slot_of_key.get(key)
        return self._add_column(key) if slot is None else slot

    def _add_column(self, key: MultiIndex) -> int:
        z = self.ks.product_columns([key])[:, 0]
        if not np.all(np.isfinite(z)):
            raise FloatingPointError(f"non-finite column for monomial {key}")
        s = self.num_columns
        if s == self._C.shape[1]:
            self._grow(max(16, 2 * s))
        self._C[:, s] = z
        row = self._C[:, : s + 1].T @ z
        if not np.all(np.isfinite(row)):
            raise FloatingPointError(f"non-finite Gram row for monomial {key}")
        self._G[s, : s + 1] = row
        self._G[: s + 1, s] = row
        self._slot_of_key[key] = s
        return s

    def _grow(self, capacity: int):
        """Copy the cache into fresh arrays of room `capacity`. Support forms
        handed out earlier keep the old arrays."""
        s = self.num_columns
        # copied through an index list, with temporaries, on purpose: with
        # plain slice copies the benchmark's `wide` workload read setup_s
        # 21% higher (2.23 against 1.85 ms, medians of 10 alternating 30 s
        # pairs on a 2-vCPU VM), from the allocator state this leaves for
        # the next fit's kernel build, not from more work
        keep = list(range(s))
        C = np.empty((self.ks.n, capacity), order="F")
        C[:, :s] = self._C[:, keep]
        G = np.empty((capacity, capacity))
        G[:s, :s] = self._G[np.ix_(keep, keep)]
        self._C, self._G = C, G

    def check(self):
        """Raise FloatingPointError if G is not exactly symmetric, as the
        solve reads it transposed, or has drifted from a fresh C'C by more
        than _GRAM_CHECK_RTOL of its norm."""
        s = self.num_columns
        C, G = self._C[:, :s], self._G[:s, :s]
        if not np.array_equal(G, G.T):
            raise FloatingPointError("cached column Gram is not exactly symmetric")
        fresh = C.T @ C
        error = np.linalg.norm(G - fresh)
        if not error <= _GRAM_CHECK_RTOL * np.linalg.norm(fresh):
            raise FloatingPointError(f"cached column Gram disagrees with C'C: {error:.3e}")


class OptimizerState:
    """Single-owner mutable state for one descent run: the iterate as a plain
    vector over the tuples touched so far, in order of first touch (per tuple
    its weight, its running sum over the counted iterates, the cache slot of
    its monomial and 1/rho_|i|^2), and the `SupportCache` of their columns. A
    step raises one weight and rescales the vector back into the ball.
    `last_index` is the tuple of the latest nonzero update, None before one."""

    def __init__(self, ks: BaseKernelSet, rho: RhoSchedule):
        self.ks = ks
        self.rho = rho
        self.iter = 0
        self.last_index: MultiIndex | None = None
        self.cache = SupportCache(ks)
        # the Gram check's fixed probe, made at its first call
        self._probe: np.ndarray | None = None
        # the touched tuples, in order of first touch, with their positions
        # in the arrays below (which hold room for more); the iterates
        # counted toward the average; and the current squared norm
        self._position: dict[MultiIndex, int] = {}
        self._theta = np.zeros(0)
        self._sum = np.zeros(0)
        self._slot = np.zeros(0, dtype=np.intp)
        self._inv_rho_sq = np.zeros(0)
        self._count = 0
        self._norm_sq = 0.0

    @property
    def theta(self) -> SparseTheta:
        """The current iterate: the touched tuples whose weight is nonzero."""
        m = len(self._position)
        return SparseTheta.from_dict(dict(zip(self._position, self._theta[:m].tolist())))

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self._theta[: len(self._position)]))

    def norm(self) -> float:
        """The current iterate's norm, from the squared norm of the last step."""
        return math.sqrt(self._norm_sq)

    def support_gram(self) -> SupportGram:
        """The current combined Gram in support form: the cache's columns and
        their Gram, with each monomial's weight summed afresh over its
        tuples."""
        m = len(self._position)
        weights = np.bincount(
            self._slot[:m], self._theta[:m] * self._inv_rho_sq[:m], self.cache.num_columns
        )
        # an empty bincount is an integer array
        return self.cache.gram(weights.astype(float, copy=False))

    def combined_gram(self) -> np.ndarray:
        """The current combined Gram, built dense from the cache into a fresh
        array (n x n; for oracles and tests)."""
        return self.support_gram().dense()

    def rebuild_combined_gram(self) -> SupportGram:
        """The combined Gram in support form, assembled afresh from theta's
        tuples, independently of the cache's slots and columns."""
        return assemble_combined_gram(self.theta, self.ks, self.rho)

    def _enter(self, idx: MultiIndex) -> int:
        """Give a first-touched tuple the next position, at weight 0, and its
        monomial a slot in the cache."""
        slot = self.cache.slot(monomial_key(idx))
        m = len(self._position)
        if m == len(self._theta):
            self._theta, self._sum, self._slot, self._inv_rho_sq = (
                np.concatenate((a, np.zeros(max(16, m), a.dtype)))
                for a in (self._theta, self._sum, self._slot, self._inv_rho_sq)
            )
        self._slot[m] = slot
        self._inv_rho_sq[m] = 1.0 / self.rho.rho_sq[len(idx)]
        self._position[idx] = m
        return m

    def step(self, idx: MultiIndex, value: float, eta: float) -> "OptimizerState":
        """One full update: count the entering iterate toward the average, add
        -eta * value >= 0 to coordinate idx, where `value` is the drawn
        estimate of its gradient component, and rescale back into the unit
        ball. A gradient component is never positive, so a positive value
        raises ValueError, as does a step size that is not positive and
        finite."""
        # written so that a NaN fails them too
        if not 0.0 < eta < math.inf:
            raise ValueError(f"step size must be positive and finite, got {eta}")
        if not math.isfinite(value):
            raise FloatingPointError("non-finite gradient sample")
        if value > 0.0:
            raise ValueError(f"positive gradient sample {value} on {idx}")
        m = len(self._position)
        self._sum[:m] += self._theta[:m]
        self._count += 1
        self.iter += 1
        delta_theta = -eta * value
        if delta_theta == 0.0:
            return self
        position = self._position.get(idx)
        weight = delta_theta if position is None else self._theta[position] + delta_theta
        if weight == math.inf:
            raise FloatingPointError(f"weight of {idx} overflows")
        if position is None:
            # the cache's keys drop index 0, so an entering tuple is checked here
            if 0 in idx and not self.ks.has_constant:
                raise KernelError("no base kernel with index 0")
            position = self._enter(idx)
        self._theta[position] = weight
        self.last_index = idx
        theta = self._theta[: len(self._position)]
        # np.vdot, unlike @, does not warn when a square overflows, and the
        # projection takes an infinite squared norm by its other route
        norm_sq = float(np.vdot(theta, theta))
        if project_pos_l2ball(theta, norm_sq) != 1.0:
            norm_sq = float(np.vdot(theta, theta))
        self._norm_sq = norm_sq
        return self

    def check_combined_gram(self):
        """Raise FloatingPointError if the cache fails `SupportCache.check`;
        if a fixed probe through a live monomial's cached column differs from
        the probe through its column built afresh by `support_columns` of
        theta; if a touched tuple's slot or 1/rho^2 is not, bit for bit, its
        monomial's slot or 1 / rho_|i|^2; or if the cached column of
        `last_index` disagrees with entries of its product kernel
        (`_check_column`). The cache's own check shares its key map and
        columns; the column probe shares neither, and carries no weight, so
        it sees a wrong column at any weight. The exact comparisons see the
        rest, and the kernel entries come straight from the inputs. Each
        bound is _GRAM_CHECK_RTOL times what it compares, before any
        cancellation. O(n s) beyond the cache's own check."""
        self.cache.check()
        # a fixed probe, made once per state, so the check draws nothing from
        # the run's generator
        if self._probe is None:
            self._probe = np.random.default_rng(0).standard_normal(self.ks.n)
        probe = self._probe
        cached_along = self.support_gram().columns.T @ probe
        keys, columns, _weights = support_columns(self.theta, self.ks, self.rho)
        along = columns.T @ probe
        # a key without a column maps to -1; the exact slot comparison below
        # raises on it whatever this comparison finds
        errors = np.abs(cached_along[self.cache.slots(keys)] - along)
        sizes = np.abs(columns).T @ np.abs(probe)
        # written so that a NaN fails it too
        wrong = np.flatnonzero(~(errors <= _GRAM_CHECK_RTOL * sizes))
        if wrong.size:
            k = wrong[0]
            raise FloatingPointError(
                f"cached column of monomial {keys[k]} disagrees with its column "
                f"built afresh: {errors[k]:.3e} of {sizes[k]:.3e}"
            )
        tuples = list(self._position)
        m = len(tuples)
        if not np.array_equal(self._slot[:m], self.cache.slots([monomial_key(i) for i in tuples])):
            raise FloatingPointError("a touched tuple's slot is not its monomial's")
        inv_rho_sq = 1.0 / self.rho.rho_sq[[len(i) for i in tuples]]
        if not np.array_equal(self._inv_rho_sq[:m], inv_rho_sq):
            raise FloatingPointError("a touched tuple's 1/rho^2 is not 1/rho_|i|^2")
        if self.last_index is not None:
            self._check_column(self.last_index, self.cache.column(self.last_index))

    def _check_column(self, idx: MultiIndex, z: np.ndarray):
        """Compare z z' with entries of the product kernel K of idx, taken
        straight from the inputs: its diagonal d and its row p = argmax d.
        For the rank-one K = w w' this is z z' = K: the diagonal fixes
        |z| = |w|, and row p fixes one common sign. O(n k), with no n x n
        array."""
        inputs = self.ks.inputs
        diagonal = np.ones(self.ks.n)
        for j in idx:
            if j != 0:
                diagonal *= inputs[:, j - 1] * inputs[:, j - 1]
        p = int(np.argmax(diagonal))
        bound = _GRAM_CHECK_RTOL * diagonal[p]
        if diagonal[p] == 0.0:
            if np.any(z):
                raise FloatingPointError(f"column of {idx} is nonzero where its kernel is zero")
            return
        # written so that a NaN fails them too
        error = float(np.max(np.abs(z * z - diagonal)))
        if not error <= bound:
            raise FloatingPointError(
                f"column of {idx} disagrees with its kernel's diagonal: "
                f"{error:.3e} of {diagonal[p]:.3e}"
            )
        row = product_kernel_cross(inputs, inputs[p : p + 1], idx)[0]
        error = float(np.max(np.abs(z[p] * z - row)))
        if not error <= bound:
            raise FloatingPointError(
                f"column of {idx} disagrees with its kernel's row {p}: "
                f"{error:.3e} of {diagonal[p]:.3e}"
            )

    def average_theta(self) -> SparseTheta:
        """The average of the iterates counted so far, the running sums over
        their count; does not disturb the running bookkeeping."""
        if self._count < 1:
            raise ValueError("no iterates have been counted yet")
        average = self._sum[: len(self._position)] / self._count
        return SparseTheta.from_dict(dict(zip(self._position, average.tolist())))

    def mark_tail_iterates(self, count: int):
        """Count `count` further iterates equal to the current one (used when a
        run stops early with a zero gradient)."""
        if count > 0:
            m = len(self._position)
            self._sum[:m] += count * self._theta[:m]
            self._count += count


def proportional_draws(ks: BaseKernelSet, rho: RhoSchedule, seed: int):
    """The draw of the proportional sampler: one tuple i with probability
    q_i = |g_i| / C through a `SamplerWorkspace` on the generator [seed, 1],
    with the importance estimate g_i / q_i = -C of its component."""
    workspace = SamplerWorkspace(ks, rho, np.random.default_rng([int(seed), 1]))

    def draw(masses: DegreeMasses) -> tuple[MultiIndex, float]:
        return workspace.draw(masses), -total_mass_C(masses)

    return draw


def run(
    config, data: Dataset, ks: BaseKernelSet, rho: RhoSchedule, draws=proportional_draws
) -> RunResult:
    """Full descent loop: per iteration, an inner solve at the current iterate,
    the degree masses, one draw, and a projected single-coordinate update.
    Returns the averaged iterate, the inner solve at it, and per-iteration
    records. Deterministic given config.seed. Every solve, in the loop and
    after it, is in support form.

    `config` is a `RunConfig`; the loop reads its fields T, step (None for
    `default_step_size` at the starting mass C0), seed and checkpoint_every
    (>= 1).
    `draws(ks, rho, seed)` is called once, before the loop, and returns
    `draw(masses) -> (idx, value)`: given the iteration's `DegreeMasses`,
    which carry the alpha they were taken at, the drawn tuple and the
    estimate of its gradient component that the iteration's step applies. It
    owns its generator. The default is `proportional_draws`;
    `baselines.uniform_draws` gives uniform coordinate descent.
    """
    T = int(config.T)
    if T < 1:
        raise ValueError("T must be >= 1")
    draw = draws(ks, rho, config.seed)
    state = OptimizerState(ks, rho)
    records: list[RunRecord] = []
    y = data.targets

    started = time.perf_counter()
    converged = False
    mass_exceeded = False
    try:
        for k in range(1, T + 1):
            dual = solve_alpha(state.support_gram(), y)
            masses = degree_masses(dual.alpha, ks, rho)
            C = total_mass_C(masses)
            if k == 1:
                C0 = C
                if config.step is not None:
                    step_size = float(config.step)
                elif C0 > 0:
                    step_size = default_step_size(C0, T)
                else:
                    step_size = 1.0  # the loop ends below, before any step
            if C > MASS_BUDGET_FACTOR * max(C0, 1e-300) and not mass_exceeded:
                mass_exceeded = True
                warnings.warn(
                    f"gradient mass {C:.3e} exceeded {MASS_BUDGET_FACTOR:.1f}x its "
                    f"starting value {C0:.3e}; step size may be too optimistic",
                    RuntimeWarning,
                    stacklevel=2,
                )
            records.append(
                RunRecord(
                    iter=k,
                    wall_time_s=time.perf_counter() - started,
                    J_value=dual.J_value,
                    C_value=C,
                    support_size=state.support_size,
                    theta_norm=state.norm(),
                )
            )
            if C <= 0:
                # zero gradient: every later iterate equals this one
                state.mark_tail_iterates(T - k + 1)
                converged = True
                break
            state.step(*draw(masses), step_size)
            if k % config.checkpoint_every == 0:
                state.check_combined_gram()
    except Exception as exc:
        exc.partial_records = records  # let the harness flush what exists
        raise

    theta_avg = state.average_theta()
    final = solve_alpha(assemble_combined_gram(theta_avg, ks, rho), y)
    theta_last = state.theta
    dual_last = solve_alpha(state.rebuild_combined_gram(), y)
    return RunResult(
        theta_avg=theta_avg,
        final=final,
        records=records,
        step_size=step_size,
        converged=converged,
        mass_exceeded_budget=mass_exceeded,
        theta_last=theta_last,
        dual_last=dual_last,
    )
