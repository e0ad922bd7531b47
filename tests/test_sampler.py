import time

import numpy as np
import pytest
import scipy.stats

from polymkl import (
    Dataset,
    RhoSchedule,
    build_base_kernels,
    degree_masses,
    product_kernel_matrix,
)
from polymkl import baselines, sampler
from polymkl.baselines import EnumerationError, brute_force_q, enumerate_index_set
from polymkl.gradient import DegreeMasses
from polymkl.kernels import position_weights
from polymkl.sampler import _NEG_TOL, SamplerError, SamplerWorkspace, _draw_categorical

from helpers import run_python


def random_instance(n=10, r=3, D=2, seed=0, include_constant=False):
    rng = np.random.default_rng(seed)
    data = Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))
    ks = build_base_kernels(data, include_constant=include_constant, D=D)
    rho = RhoSchedule.uniform(D)
    alpha = rng.normal(size=n)
    return alpha, ks, rho


def empirical_distribution(alpha, ks, rho, draws, seed):
    rng = np.random.default_rng(seed)
    ws = SamplerWorkspace(ks, rho, rng)
    masses = degree_masses(alpha, ks, rho)
    counts = {}
    for _ in range(draws):
        idx = ws.draw(masses)
        counts[idx] = counts.get(idx, 0) + 1
    return counts


class TestHandComputedCases:
    def test_unit_scalar_kernel(self):
        # n=1, single base kernel with K=[1]: both degree masses are 1, so the
        # degree is a fair coin and degree 1 forces the only base index
        data = Dataset(inputs=np.array([[1.0]]), targets=np.array([0.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule.uniform(1)
        alpha = np.array([1.0])
        masses = degree_masses(alpha, ks, rho)
        np.testing.assert_allclose(masses.delta, [1.0, 1.0])
        counts = empirical_distribution(alpha, ks, rho, draws=20000, seed=1)
        assert set(counts) == {(), (1,)}
        assert abs(counts[()] / 20000 - 0.5) < 0.02

    def test_scalar_kernel_two(self):
        # K=[2] tilts the degree draw to 2/3 on degree 1
        data = Dataset(inputs=np.array([[np.sqrt(2.0)]]), targets=np.array([0.0]))
        ks = build_base_kernels(data, include_constant=False, D=1)
        rho = RhoSchedule.uniform(1)
        alpha = np.array([1.0])
        masses = degree_masses(alpha, ks, rho)
        np.testing.assert_allclose(masses.delta, [1.0, 2.0])
        counts = empirical_distribution(alpha, ks, rho, draws=30000, seed=2)
        assert abs(counts[(1,)] / 30000 - 2 / 3) < 0.02


class TestBruteForceQ:
    def test_single_atom(self):
        data = Dataset(inputs=np.array([[1.0], [-1.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=False, D=1)
        alpha = np.array([0.5, -0.5])  # alpha sums to 0: degree-0 mass vanishes
        q = brute_force_q(alpha, ks, RhoSchedule.uniform(1), 1)
        assert q[(1,)] == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        alpha, ks, rho = random_instance(seed=3)
        q = brute_force_q(alpha, ks, rho, 2)
        assert sum(q.values()) == pytest.approx(1.0, abs=1e-12)
        assert len(q) == 13  # 1 + 3 + 9 ordered tuples

    def test_permutation_symmetry(self):
        alpha, ks, rho = random_instance(seed=4)
        q = brute_force_q(alpha, ks, rho, 2)
        for a in range(1, 4):
            for b in range(1, 4):
                assert q[(a, b)] == pytest.approx(q[(b, a)], rel=1e-12)

    def test_degree_sums_match_masses(self):
        alpha, ks, rho = random_instance(seed=5)
        q = brute_force_q(alpha, ks, rho, 2)
        masses = degree_masses(alpha, ks, rho)
        for d in range(3):
            degree_sum = sum(p for idx, p in q.items() if len(idx) == d)
            assert degree_sum == pytest.approx(masses.delta[d] / masses.total, abs=1e-12)

    def test_enumeration_guard(self, monkeypatch):
        alpha, ks, rho = random_instance(n=4, r=3, D=2, seed=6)
        monkeypatch.setattr(baselines, "ENUMERATION_GUARD", 5)
        with pytest.raises(EnumerationError, match="guard"):
            brute_force_q(alpha, ks, rho, 2)


def assert_law_matches(alpha, ks, rho, draws, seed, label):
    """The draw's joint law over ordered tuples must match the enumerated
    |gradient| distribution: small TV distance and a chi-square
    goodness-of-fit that is not rejected at 1e-3."""
    q = brute_force_q(alpha, ks, rho, ks.D)
    counts = empirical_distribution(alpha, ks, rho, draws, seed=seed)
    tv = 0.5 * sum(abs(counts.get(idx, 0) / draws - p) for idx, p in q.items())
    assert tv <= 0.02, f"{label}: TV {tv}"
    keys = [idx for idx, p in q.items() if p * draws >= 5]
    observed = np.array([counts.get(idx, 0) for idx in keys], dtype=float)
    expected = np.array([q[idx] * draws for idx in keys])
    # fold leftover mass into one bin so totals match
    leftover_obs = draws - observed.sum()
    leftover_exp = draws - expected.sum()
    if leftover_exp > 5:
        observed = np.append(observed, leftover_obs)
        expected = np.append(expected, leftover_exp)
    else:
        observed[-1] += leftover_obs
        expected[-1] += leftover_exp
    stat, pvalue = scipy.stats.chisquare(observed, expected)
    assert pvalue > 1e-3, f"{label}: chi2 p={pvalue}"


class TestExactLaw:
    def test_tv_distance_and_chisquare(self):
        draws = 10**5
        for seed in range(5):
            alpha, ks, rho = random_instance(n=10, r=3, D=2, seed=10 + seed)
            assert_law_matches(alpha, ks, rho, draws, 100 + seed, f"instance {seed}")

    def test_tv_distance_and_chisquare_where_every_position_lifts(self):
        # F_1 = 3 and F_2 = 6 fall below n = 12, so both degrees are features
        # and every position, the first included, reads its weights off the
        # next degree's projection
        alpha, ks, rho = random_instance(n=12, r=2, D=2, seed=15, include_constant=True)
        assert sorted(ks.features) == [1, 2] and not ks.dense_powers
        assert_law_matches(alpha, ks, rho, 10**5, 105, "every position lifts")

    def test_marginal_degree_law(self):
        draws = 10**5
        alpha, ks, rho = random_instance(n=8, r=3, D=2, seed=20)
        masses = degree_masses(alpha, ks, rho)
        counts = empirical_distribution(alpha, ks, rho, draws, seed=21)
        for d in range(3):
            p = masses.delta[d] / masses.total
            freq = sum(c for idx, c in counts.items() if len(idx) == d) / draws
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 3 * se + 1e-12

    def test_nonuniform_rho_changes_law(self):
        alpha, ks, _ = random_instance(n=8, r=2, D=2, seed=22)
        flat = brute_force_q(alpha, ks, RhoSchedule.uniform(2), 2)
        tilted = brute_force_q(alpha, ks, RhoSchedule(np.array([1.0, 1.0, 16.0])), 2)
        deg2_flat = sum(p for idx, p in flat.items() if len(idx) == 2)
        deg2_tilted = sum(p for idx, p in tilted.items() if len(idx) == 2)
        assert deg2_tilted < deg2_flat


def scripted_law(alpha, ks, rho, monkeypatch):
    """The probability that `draw` gives each ordered tuple, read off its own
    code: a scripted `_draw_categorical` steers the draw to the tuple, the
    degree first and then one base position at a time, and multiplies the
    chances w[pos] / sum(w) that the real one gives those outcomes."""
    script, chance = [], [1.0]

    def scripted(rng, weights, total, scale):
        # the real draw clamps negative round-off to zero
        weights = np.maximum(weights, 0.0)
        pos = script.pop(0)
        chance[0] *= weights[pos] / float(weights.sum())
        return pos

    monkeypatch.setattr(sampler, "_draw_categorical", scripted)
    workspace = SamplerWorkspace(ks, rho, np.random.default_rng(0))
    masses = degree_masses(alpha, ks, rho)
    law = {}
    for idx in enumerate_index_set(ks.indices, ks.D):
        script[:] = [len(idx)] + [ks.indices.index(j) for j in idx]
        chance[0] = 1.0
        assert workspace.draw(masses) == idx and not script
        law[idx] = chance[0]
    return law


class TestScriptedExactLaw:
    def test_matches_the_enumerated_law(self, monkeypatch):
        # n 5-13, r 1-4, D 1-4, the constant kernel on and off, random rho:
        # the draw's every branch (lifted positions, the top feature degree,
        # dense degrees, a dense top degree's first position off the masses)
        # is taken.
        # A tuple's mass (z'alpha)^2 cancels in the draw's doubles, so each
        # error is taken relative to its mass before cancellation,
        # (|z|'|alpha|)^2: the worst seen was 1.6e-15. The oracle sums in
        # long double; the worst plain relative error seen was 1.9e-13, on
        # instance 159 at p = 1.3e-9
        rng = np.random.default_rng(60)
        forms = set()
        worst = 0.0
        for _ in range(200):
            n, r, D = int(rng.integers(5, 14)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            data = Dataset(inputs=rng.normal(size=(n, r)), targets=np.zeros(n))
            ks = build_base_kernels(data, include_constant=bool(rng.integers(2)), D=D)
            rho = RhoSchedule(rng.uniform(0.2, 5.0, size=D + 1))
            alpha = rng.normal(size=n)
            forms.add((bool(ks.features), bool(ks.dense_powers), ks.top_is_dense))
            law = scripted_law(alpha, ks, rho, monkeypatch)
            q = brute_force_q(alpha, ks, rho, D)
            assert law.keys() == q.keys()
            Z = ks.product_columns(list(q))
            cancelled = ((Z.T @ alpha) / (np.abs(Z).T @ np.abs(alpha))) ** 2
            errors = [abs(law[idx] - p) / p * c for (idx, p), c in zip(q.items(), cancelled)]
            worst = max(worst, max(errors))
        # a dense top degree above only features holds no dense power. D=1
        # with m >= n holds none either; `TestHandComputedCases` draws there
        assert forms == {
            (True, False, False),
            (True, False, True),
            (True, True, True),
            (False, True, True),
        }
        assert worst <= 1e-12, worst


class TestDeterminismAndCost:
    def test_same_seed_same_sequence(self):
        alpha, ks, rho = random_instance(seed=30)
        masses = degree_masses(alpha, ks, rho)

        def draws():
            return [
                SamplerWorkspace(ks, rho, np.random.default_rng(7)).draw(masses)
                for _ in range(20)
            ]

        a, b = draws(), draws()
        assert a == b

    def test_cost_scales_linearly_in_r(self):
        # coarse wall-clock check with factor-2 slack: doubling r must not
        # much more than double per-draw time
        def per_draw_seconds(r, draws=300):
            alpha, ks, rho = random_instance(n=30, r=r, D=2, seed=31)
            rng = np.random.default_rng(32)
            ws = SamplerWorkspace(ks, rho, rng)
            masses = degree_masses(alpha, ks, rho)
            for _ in range(20):
                ws.draw(masses)  # warm up
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                for _ in range(draws):
                    ws.draw(masses)
                best = min(best, time.perf_counter() - start)
            return best / draws

        small = per_draw_seconds(8)
        large = per_draw_seconds(16)
        assert large / small <= 2 * 2.0, f"per-draw ratio {large / small:.2f}"

    def test_zero_mass_rejected(self):
        alpha, ks, rho = random_instance(seed=33)
        zero = np.zeros(ks.n)
        masses = degree_masses(zero, ks, rho)
        with pytest.raises(SamplerError):
            SamplerWorkspace(ks, rho, np.random.default_rng(0)).draw(masses)

    def test_inconsistent_degree_masses_raise(self):
        # all mass on degree 2, but twice what the position weights sum to:
        # the telescoping check must raise, also under python -O
        alpha, ks, rho = random_instance(seed=34)
        true = degree_masses(alpha, ks, rho).delta[2]
        bogus = DegreeMasses(alpha, np.array([0.0, 0.0, 2.0 * true]))
        with pytest.raises(SamplerError, match="telescoping"):
            SamplerWorkspace(ks, rho, np.random.default_rng(0)).draw(bogus)


class TestFirstPosition:
    # the first position projects alpha afresh, like every later one; the
    # weights it lifts off Phi_d' alpha must sum to the degree mass, which
    # `degree_masses` takes as the squared norm of its own Phi_d' alpha
    @pytest.mark.parametrize(
        "n,r,D,include_constant",
        [
            (80, 5, 3, True),
            (30, 5, 3, True),
            (12, 3, 3, True),
            (12, 2, 2, True),
            (40, 3, 2, False),
        ],
    )
    def test_weights_from_projections_match_a_fresh_projection(
        self, n, r, D, include_constant
    ):
        alpha, ks, rho = random_instance(n, r, D, seed=60, include_constant=include_constant)
        masses = degree_masses(alpha, ks, rho)
        assert ks.features
        for d in ks.features:
            mass = masses.delta[d] * rho.rho_sq[d]
            total = position_weights(ks, alpha, d - 1).sum()
            assert abs(total - mass) <= 1e-12 * mass, d


def dense_instances(count, seed):
    """Kernel sets with n < F_2, so degree 2 and every degree above it are
    dense (and S itself where n <= m), with D up to 4, the constant kernel
    on and off, tilted rho, and a random vector. The dense degrees below the
    top are held as Hadamard powers; the top one is held in neither form."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        r = int(rng.integers(3, 9))
        include_constant = bool(rng.integers(2))
        m = r + include_constant
        n = int(rng.integers(3, m * (m + 1) // 2))
        D = int(rng.integers(2, 5))
        data = Dataset(inputs=rng.normal(size=(n, r)), targets=np.zeros(n))
        ks = build_base_kernels(data, include_constant=include_constant, D=D)
        rho = RhoSchedule(rng.uniform(0.2, 5.0, size=D + 1))
        yield ks, rho, rng.normal(size=n)


def dense_top_instances(seed):
    """The two shapes of a dense top degree that hold no dense power at all,
    each with the constant kernel on and off: D=1 with m >= n, and D=3 above
    features 1 and 2 (m=4, F = 4/10/20, 10 < n <= 20)."""
    rng = np.random.default_rng(seed)
    for n, r, include_constant, D in [
        (4, 4, False, 1),
        (5, 4, True, 1),
        (13, 4, False, 3),
        (18, 3, True, 3),
    ]:
        data = Dataset(inputs=rng.normal(size=(n, r)), targets=np.zeros(n))
        ks = build_base_kernels(data, include_constant=include_constant, D=D)
        rho = RhoSchedule(rng.uniform(0.2, 5.0, size=D + 1))
        yield ks, rho, rng.normal(size=n)


class TestDenseTriangleReads:
    # Each dense power is read through its lower triangle only. Both products
    # round within a few n ulps of their uncancelled scale, |U|'|P||U| for
    # the weights and |alpha|'|P||alpha| for the masses: with n < 45 here
    # that is below 1e-13, and the worst seen was 8e-16. Dropping the factor
    # 2 or the diagonal term errs by more than 0.4 of that scale on every
    # instance.
    BOUND = 1e-13

    def test_dense_powers_are_exactly_symmetric_fortran_transposes(self):
        for ks, _, _ in dense_instances(60, seed=80):
            assert ks.top_is_dense
            assert sorted(ks.dense_powers) == list(range(len(ks.features) + 1, ks.D))
            for P in ks.dense_powers.values():
                assert np.array_equal(P, P.T)
                # so BLAS reads P.T as it is, without a copy
                assert P.T.flags.f_contiguous

    def test_position_weights_match_the_full_matrix_product(self):
        # with the form column u beside U = u * Z, whose weight is u' P u
        remaining_seen, two_below_top = set(), False
        for ks, rho, u in dense_instances(60, seed=80):
            U = np.column_stack([u[:, None] * ks.Z, u])
            dense = [k for k in range(1, ks.D) if k in ks.dense_powers]
            remaining_seen.update(dense)
            two_below_top |= len(dense) >= 2
            for k in dense:
                P = ks.dense_powers[k]
                full = np.einsum("tj,tj->j", U, P @ U)
                scale = np.einsum("tj,tj->j", np.abs(U), np.abs(P) @ np.abs(U))
                error = np.abs(position_weights(ks, u, k, form=True) - full)
                assert np.all(error <= self.BOUND * scale), (ks.n, ks.D, k)
        assert remaining_seen == {1, 2, 3} and two_below_top

    def test_degree_masses_match_the_full_quadratic_form(self):
        # every dense degree, the top one included, against (Z Z')^(.)d built
        # here from the inputs, on both shapes of dense top that hold no dense
        # power as well
        shapes = set()
        for ks, rho, alpha in [*dense_instances(60, seed=80), *dense_top_instances(81)]:
            masses = degree_masses(alpha, ks, rho)
            Z = np.column_stack([np.ones(ks.n)] * ks.has_constant + [ks.inputs])
            assert ks.top_is_dense
            shapes.add((ks.D == 1, len(ks.features) == ks.D - 1))
            for d in range(len(ks.features) + 1, ks.D + 1):
                P = (Z @ Z.T) ** d
                full = alpha @ P @ alpha / rho.rho_sq[d]
                scale = np.abs(alpha) @ np.abs(P) @ np.abs(alpha) / rho.rho_sq[d]
                # the clamp may zero a form that is round-off below zero
                assert abs(masses.delta[d] - full) <= self.BOUND * scale, (ks.n, ks.D, d)
        assert shapes == {(False, False), (False, True), (True, True)}


# a degree-D draw on a kernel set whose top feature block is scaled by
# 1 + 1e-6: the masses and the first position agree with each other, but the
# second position projects onto the uncorrupted block below
CORRUPT_TOP_BLOCK = """
import numpy as np
from polymkl import Dataset, RhoSchedule, build_base_kernels, degree_masses
from polymkl.gradient import DegreeMasses
from polymkl.sampler import SamplerError, SamplerWorkspace

rng = np.random.default_rng(70)
data = Dataset(inputs=rng.normal(size=(80, 5)), targets=rng.normal(size=80))
ks = build_base_kernels(data, include_constant=True, D=3)
rho = RhoSchedule.uniform(3)
alpha = rng.normal(size=80)
print("features:", sorted(ks.features))
ks.features[3] = ks.features[3] * (1 + 1e-6)
masses = degree_masses(alpha, ks, rho)
delta = np.array([0.0, 0.0, 0.0, masses.delta[3]])
top = DegreeMasses(alpha, delta)
ws = SamplerWorkspace(ks, rho, np.random.default_rng(71))
try:
    ws.draw(top)
except SamplerError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python -O"])
def test_corrupt_top_feature_block_raises_within_the_draw(flags):
    done = run_python(*flags, "-c", CORRUPT_TOP_BLOCK)
    assert done.returncode == 0, done.stderr
    assert "features: [1, 2, 3]" in done.stdout
    assert "raised: telescoping identity violated" in done.stdout


def test_dense_top_degree_held_in_neither_form_draws_from_its_own_masses():
    # a degree-1 draw on a kernel set with m = 6 >= n = 5, so that S is held
    # in neither form: the draw's one position is the first position its
    # masses carry
    rng = np.random.default_rng(76)
    data = Dataset(inputs=rng.normal(size=(5, 5)), targets=rng.normal(size=5))
    ks = build_base_kernels(data, include_constant=True, D=1)
    rho = RhoSchedule.uniform(1)
    alpha = rng.normal(size=5)
    assert ks.top_is_dense and not ks.features and not ks.dense_powers
    ws = SamplerWorkspace(ks, rho, np.random.default_rng(77))
    assert len(ws.draw(degree_masses(alpha, ks, rho))) == 1


# a degree-D draw on a kernel set whose dense power below the top, S^(.)2,
# is scaled by 1 + 1e-6. The masses take the first position over it, so
# that position agrees with degree 3's mass; the second projects onto the
# uncorrupted features of degree 1 and its telescoping check raises
CORRUPT_DENSE_BELOW_TOP = """
import dataclasses
import numpy as np
from polymkl import Dataset, RhoSchedule, build_base_kernels, degree_masses
from polymkl.sampler import SamplerError, SamplerWorkspace

rng = np.random.default_rng(78)
data = Dataset(inputs=rng.normal(size=(30, 8)), targets=rng.normal(size=30))
ks = build_base_kernels(data, include_constant=True, D=3)
rho = RhoSchedule.uniform(3)
alpha = rng.normal(size=30)
print("held:", sorted(ks.features), sorted(ks.dense_powers), "top is dense:", ks.top_is_dense)
ks.dense_powers[2] = ks.dense_powers[2] * (1 + 1e-6)
masses = degree_masses(alpha, ks, rho)
delta = np.array([0.0, 0.0, 0.0, masses.delta[3]])
top = dataclasses.replace(masses, delta=delta)
ws = SamplerWorkspace(ks, rho, np.random.default_rng(79))
try:
    ws.draw(top)
except SamplerError as exc:
    print("raised:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python -O"])
def test_corrupt_dense_power_below_the_top_raises_within_the_draw(flags):
    done = run_python(*flags, "-c", CORRUPT_DENSE_BELOW_TOP)
    assert done.returncode == 0, done.stderr
    assert "held: [1] [2] top is dense: True" in done.stdout
    assert "raised: telescoping identity violated" in done.stdout


# totals that are not positive and finite, handed to the categorical
# directly, and degree masses whose total is not finite and >= 0: each
# raises where it is made, also under python -O
NON_FINITE_TOTALS = """
import numpy as np
from polymkl.gradient import DegreeMasses
from polymkl.sampler import SamplerError, _draw_categorical

alpha = np.random.default_rng(74).normal(size=10)
weights = np.array([1.0, 2.0, 0.5])


def attempt(label, call):
    try:
        print(label, "gave:", call())
    except (SamplerError, ValueError) as exc:
        print(label, "raised:", type(exc).__name__, exc)


attempt("inf mass", lambda: DegreeMasses(alpha, np.array([0.0, np.inf, 1.0])))
attempt("nan total", lambda: _draw_categorical(np.random.default_rng(0), weights, np.nan, 1.0))
attempt("inf total", lambda: _draw_categorical(np.random.default_rng(0), weights, np.inf, 1.0))
attempt("nan mass", lambda: DegreeMasses(alpha, np.array([np.nan, 1.0, 2.0])))
attempt("negative masses", lambda: DegreeMasses(alpha, -weights))
attempt("masses total", lambda: DegreeMasses(alpha, weights).total)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python -O"])
def test_totals_not_positive_and_finite_raise_where_they_are_made(flags):
    done = run_python(*flags, "-c", NON_FINITE_TOTALS)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines == [
        "inf mass raised: ValueError degree masses total inf, not finite and nonnegative",
        "nan total raised: SamplerError sampling masses total nan, not positive and finite; "
        "upstream state is corrupt",
        "inf total raised: SamplerError sampling masses total inf, not positive and finite; "
        "upstream state is corrupt",
        "nan mass raised: ValueError degree masses total nan, not finite and nonnegative",
        "negative masses raised: ValueError degree masses total -3.5, not finite and "
        "nonnegative",
        "masses total gave: 3.5",
    ]


class TestWorkspaceInvariant:
    def test_running_product_matches_factors(self):
        # after the draw, the workspace's running factor must be exactly
        # alpha times the drawn columns, and its outer product must match the
        # running Hadamard product replayed densely from alpha alpha'
        alpha, ks, rho = random_instance(n=6, r=3, D=2, seed=40)
        rng = np.random.default_rng(41)
        ws = SamplerWorkspace(ks, rho, rng)
        masses = degree_masses(alpha, ks, rho)
        for _ in range(50):
            idx = ws.draw(masses)
            if not idx:
                continue
            u = alpha.copy()
            M = np.outer(alpha, alpha)
            for j in idx:
                u = u * ks.inputs[:, j - 1]
                M = M * product_kernel_matrix(ks, (j,))
            np.testing.assert_array_equal(ws.u, u)
            np.testing.assert_allclose(np.outer(ws.u, ws.u), M, rtol=1e-12, atol=0)


def draw_categorical_reference(rng, weights, scale):
    """The categorical draw as first written, kept frozen: the draw must stay
    bit-identical to it, index and generator state alike."""
    weights = np.asarray(weights, dtype=np.float64)
    floor = -_NEG_TOL * max(1.0, scale)
    if np.any(weights < floor):
        raise SamplerError(f"negative sampling mass beyond round-off: min={weights.min()}")
    weights = np.maximum(weights, 0.0)
    total = float(weights.sum())
    if total <= 0:
        raise SamplerError("all sampling masses vanished; upstream state is corrupt")
    cumulative = np.cumsum(weights)
    u = rng.random() * total
    return int(np.searchsorted(cumulative, u, side="right").clip(0, len(weights) - 1))


class FixedVariate:
    """A stand-in generator whose every variate is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestCategoricalDrawBitIdentity:
    def random_weights(self, rng, m, kind):
        scale = float(rng.choice([1e-3, 1.0, 1e4]))
        weights = rng.uniform(0.0, scale, size=m) * rng.choice([1.0, 1e-9], size=m)
        if kind == "zeros":
            weights[rng.random(m) < 0.4] = 0.0
        elif kind == "round-off":
            # negatives above the floor -_NEG_TOL * max(1, scale)
            low = rng.random(m) < 0.4
            weights[low] = -rng.uniform(0.0, 0.9, size=low.sum()) * _NEG_TOL * max(1.0, scale)
        if weights.sum() <= 0:
            weights[-1] = scale
        return weights, scale

    @pytest.mark.parametrize("kind", ["plain", "zeros", "round-off"])
    def test_same_index_and_generator_state(self, kind):
        # every length up to 64, and two long ones past any short-length
        # agreement of numpy's pairwise and sequential sums; each draw is
        # handed the pairwise total of the weights, as the sampler hands it
        rng = np.random.default_rng(50)
        for m in [*range(1, 65), 200, 1001]:
            for _ in range(20):
                weights, scale = self.random_weights(rng, m, kind)
                seed = int(rng.integers(2**32))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = _draw_categorical(ours, weights.copy(), float(weights.sum()), scale)
                assert got == draw_categorical_reference(theirs, weights, scale)
                assert type(got) is int
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_last_index_clamp(self):
        # the cumulative sum of many small weights after a large one stops
        # short of the pairwise total, so a variate near 1 lands past it
        weights = np.array([1.0] + [1e-16] * 63)
        u = (1.0 - 2.0**-53) * float(weights.sum())
        assert np.cumsum(weights).searchsorted(u, side="right") == len(weights)
        rng = FixedVariate(1.0 - 2.0**-53)
        assert _draw_categorical(rng, weights, float(weights.sum()), 1.0) == len(weights) - 1
        assert draw_categorical_reference(rng, weights, 1.0) == len(weights) - 1

    def test_bin_edges(self):
        # cumulative sums 0, 1, 1, 3, 4, 4 over a total of 4: a variate on an
        # edge lands in the bin that starts there, and no zero bin is drawn
        weights = np.array([0.0, 1.0, 0.0, 2.0, 1.0, 0.0])
        for variate, expected in [
            (0.0, 1),
            (0.25 - 2.0**-54, 1),
            (0.25, 3),
            (0.75 - 2.0**-53, 3),
            (0.75, 4),
            (1.0 - 2.0**-53, 4),
        ]:
            assert _draw_categorical(FixedVariate(variate), weights, 4.0, 1.0) == expected, variate

    def test_total_is_the_pairwise_sum(self):
        # nine weights whose pairwise sum, 7.5200000000000005, is one ulp
        # above their last cumulative sum, 7.52: a variate on the first bin's
        # upper edge under the pairwise total lands in the second bin, and
        # under the sequential total in the first
        weights = np.array([0.7, 0.01, 3.0, 0.1, 0.2, 0.01, 3.0, 0.2, 0.3])
        pairwise, sequential = float(weights.sum()), float(np.cumsum(weights)[-1])
        assert (pairwise, sequential) == (7.5200000000000005, 7.52)
        rng = FixedVariate(0.7 / pairwise)
        assert draw_categorical_reference(rng, weights, 1.0) == 1
        assert _draw_categorical(rng, weights, pairwise, 1.0) == 1
        assert _draw_categorical(rng, weights, sequential, 1.0) == 0

    @pytest.mark.parametrize(
        "weights",
        [np.array([0.5, -1e-6, 0.5]), np.zeros(5), np.array([0.0]), np.array([-1e-13, 0.0])],
    )
    def test_still_raises(self, weights):
        total = float(weights.sum())
        for draw in (
            lambda rng: _draw_categorical(rng, weights, total, 1.0),
            lambda rng: draw_categorical_reference(rng, weights, 1.0),
        ):
            rng = np.random.default_rng(51)
            before = rng.bit_generator.state
            with pytest.raises(SamplerError):
                draw(rng)
            assert rng.bit_generator.state == before
