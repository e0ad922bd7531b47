import itertools
import math

import numpy as np
import pytest

from polymkl import (
    Dataset,
    KernelError,
    build_base_kernels,
    product_kernel_cross,
    product_kernel_matrix,
)

from helpers import count_index_set


def random_dataset(n=10, r=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))


def held_power(ks, d):
    """S^(.)d rebuilt densely from the form the kernel set holds; a dense top
    degree is held in neither form."""
    if d == 0:
        return np.ones((ks.n, ks.n))
    if d in ks.features:
        return ks.features[d] @ ks.features[d].T
    return ks.dense_powers[d]


def oracle_power(ks, d):
    """S^(.)d from the dense base Grams, independent of the held forms."""
    return sum(product_kernel_matrix(ks, (j,)) for j in ks.indices) ** d


class TestBuildBaseKernels:
    def test_outer_product_column(self):
        data = Dataset(inputs=np.array([[1.0], [-1.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=False, D=1)
        np.testing.assert_array_equal(product_kernel_matrix(ks, (1,)), [[1, -1], [-1, 1]])

    def test_constant_kernel_is_ones(self):
        data = Dataset(inputs=np.array([[2.0], [3.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=True, D=1)
        np.testing.assert_array_equal(product_kernel_matrix(ks, (0,)), np.ones((2, 2)))
        assert len(ks.indices) == 2 and ks.has_constant

    def test_sum_matches_independent_summation(self):
        data = random_dataset(n=10, r=3, seed=1)
        for const in (False, True):
            ks = build_base_kernels(data, include_constant=const, D=2)
            expected = sum(np.outer(c, c) for c in data.inputs.T)
            if const:
                expected = expected + np.ones((10, 10))
            np.testing.assert_allclose(held_power(ks, 1), expected, rtol=1e-12)

    def test_power_cache(self):
        # m=2, F = 2/3/4: all degrees as features at n=6, mixed at n=3, dense at n=2;
        # the dense top degree 3 is not held at n=3 and n=2
        for n in (6, 3, 2):
            ks = build_base_kernels(random_dataset(n=n, r=2, seed=2), include_constant=False, D=3)
            top_is_dense = ks.D > len(ks.features)
            assert top_is_dense == (n < 6) and 3 not in ks.dense_powers
            for d in range(1, 4 - top_is_dense):
                expected = oracle_power(ks, d)
                np.testing.assert_allclose(
                    held_power(ks, d), expected, rtol=0, atol=1e-12 * np.abs(expected).max()
                )

    @pytest.mark.parametrize(
        "n,features,dense",
        [(25, [1, 2, 3], []), (12, [1, 2], []), (10, [1], [2]), (3, [], [1, 2])],
    )
    def test_form_per_degree(self, n, features, dense):
        # r=3 with the constant kernel: m=4 and F = 4/10/20; features where F_k < n,
        # so at n=10 degree 2 is dense. The top degree 3 is dense below n=25 and
        # is then held in neither form
        ks = build_base_kernels(random_dataset(n=n, r=3, seed=4), include_constant=True, D=3)
        assert sorted(ks.features) == features and sorted(ks.dense_powers) == dense
        assert (ks.D > len(ks.features)) == (n < 25) and 3 not in ks.dense_powers
        for k, phi in ks.features.items():
            assert phi.shape == (n, math.comb(4 + k - 1, k))
        if features:
            assert ks.features[1] is ks.Z
        assert not hasattr(ks, "S")

    def test_base_kernels_are_psd(self):
        data = random_dataset(n=8, r=4, seed=3)
        ks = build_base_kernels(data, include_constant=True, D=1)
        for K in (product_kernel_matrix(ks, (j,)) for j in ks.indices):
            smallest = np.linalg.eigvalsh(K).min()
            assert smallest >= -1e-8 * np.linalg.norm(K)


class TestProductKernelMatrix:
    def test_single_factor(self):
        ks = build_base_kernels(random_dataset(), include_constant=False, D=2)
        x = ks.inputs[:, 1]
        np.testing.assert_array_equal(product_kernel_matrix(ks, (2,)), np.outer(x, x))

    def test_empty_index_is_ones(self):
        ks = build_base_kernels(random_dataset(), include_constant=False, D=2)
        np.testing.assert_array_equal(product_kernel_matrix(ks, ()), np.ones((10, 10)))

    def test_pair_matches_raw_inputs(self):
        data = random_dataset(n=7, r=3, seed=5)
        ks = build_base_kernels(data, include_constant=False, D=2)
        x = data.inputs
        expected = np.outer(x[:, 0], x[:, 0]) * np.outer(x[:, 1], x[:, 1])
        np.testing.assert_allclose(product_kernel_matrix(ks, (1, 2)), expected, rtol=1e-12)

    def test_out_of_range_index(self):
        ks = build_base_kernels(random_dataset(r=2), include_constant=False, D=1)
        with pytest.raises(KernelError):
            product_kernel_matrix(ks, (3,))

    def test_constant_index_without_constant_kernel(self):
        ks = build_base_kernels(random_dataset(r=2), include_constant=False, D=1)
        with pytest.raises(KernelError, match="index 0"):
            product_kernel_matrix(ks, (0, 1))

    def test_overflowing_product_rejected(self):
        data = Dataset(inputs=np.array([[1e200], [1.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=False, D=1)
        with np.errstate(over="ignore"), pytest.raises(KernelError, match="non-finite"):
            product_kernel_matrix(ks, (1,))

    def test_products_are_psd(self):
        data = random_dataset(n=8, r=3, seed=6)
        ks = build_base_kernels(data, include_constant=True, D=3)
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(0, 4))
            idx = tuple(int(j) for j in rng.choice(ks.indices, size=d))
            K = product_kernel_matrix(ks, idx)
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * max(np.linalg.norm(K), 1.0)

    def test_sum_over_tuples_equals_power(self):
        # sum of all ordered degree-d products reproduces the d-th power of S:
        # the held form, or the dense base Grams' for the top degree, which
        # is dense here and held in neither form
        data = random_dataset(n=6, r=3, seed=8)
        for const in (False, True):
            ks = build_base_kernels(data, include_constant=const, D=3)
            assert ks.D > len(ks.features)
            for d in range(4):
                total = np.zeros((6, 6))
                for idx in itertools.product(ks.indices, repeat=d):
                    total += product_kernel_matrix(ks, idx)
                power = oracle_power(ks, d) if d == 3 else held_power(ks, d)
                np.testing.assert_allclose(
                    total, power, rtol=1e-9, atol=1e-9 * np.abs(power).max()
                )


class TestProductKernelCross:
    def test_query_equals_train(self):
        data = random_dataset(n=6, r=3, seed=9)
        ks = build_base_kernels(data, include_constant=False, D=2)
        idx = (1, 3)
        cross = product_kernel_cross(data.inputs, data.inputs, idx)
        np.testing.assert_allclose(cross, product_kernel_matrix(ks, idx), rtol=1e-12)

    def test_empty_index_all_ones(self):
        cross = product_kernel_cross(np.zeros((4, 2)), np.zeros((3, 2)), ())
        np.testing.assert_array_equal(cross, np.ones((3, 4)))

    def test_squared_kernel_recomputed(self):
        rng = np.random.default_rng(10)
        train = rng.normal(size=(4, 2))
        query = rng.normal(size=(3, 2))
        cross = product_kernel_cross(train, query, (1, 1))
        for q in range(3):
            for t in range(4):
                assert cross[q, t] == pytest.approx((train[t, 0] * query[q, 0]) ** 2, rel=1e-12)

    def test_constant_index_contributes_one(self):
        rng = np.random.default_rng(11)
        train = rng.normal(size=(5, 2))
        query = rng.normal(size=(2, 2))
        np.testing.assert_allclose(
            product_kernel_cross(train, query, (0, 2)),
            product_kernel_cross(train, query, (2,)),
            rtol=1e-15,
        )

    def test_column_mismatch(self):
        with pytest.raises(KernelError, match="column mismatch"):
            product_kernel_cross(np.zeros((4, 2)), np.zeros((3, 5)), (1,))


class TestCountIndexSet:
    def test_known_counts(self):
        assert count_index_set(5, 3) == (156, 56)

    def test_single_kernel(self):
        for D in range(5):
            assert count_index_set(1, D)[0] == D + 1

    def test_geometric_sum(self):
        assert count_index_set(20, 3)[0] == 8421

    def test_large_counts_exact(self):
        ordered, distinct = count_index_set(100, 10)
        assert ordered == sum(100**d for d in range(11))  # exceeds 2^63; must not wrap
        assert distinct == 46897636623981
