import itertools

import numpy as np
import pytest

from polymkl import (
    Dataset,
    GramMatrix,
    KernelError,
    build_base_kernels,
    count_index_set,
    hadamard_power,
    product_kernel_cross,
    product_kernel_matrix,
)


def random_dataset(n=10, r=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))


class TestBuildBaseKernels:
    def test_outer_product_column(self):
        data = Dataset(inputs=np.array([[1.0], [-1.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=False, D=1)
        np.testing.assert_array_equal(ks.kernel(1), [[1, -1], [-1, 1]])

    def test_constant_kernel_is_ones(self):
        data = Dataset(inputs=np.array([[2.0], [3.0]]), targets=np.zeros(2))
        ks = build_base_kernels(data, include_constant=True, D=1)
        np.testing.assert_array_equal(ks.kernel(0), np.ones((2, 2)))
        assert ks.num_kernels == 2 and ks.has_constant

    def test_sum_matches_independent_summation(self):
        data = random_dataset(n=10, r=3, seed=1)
        for const in (False, True):
            ks = build_base_kernels(data, include_constant=const, D=2)
            expected = sum(np.outer(c, c) for c in data.inputs.T)
            if const:
                expected = expected + np.ones((10, 10))
            np.testing.assert_allclose(ks.S, expected, rtol=1e-12)

    def test_power_cache(self):
        data = random_dataset(n=6, r=2, seed=2)
        ks = build_base_kernels(data, include_constant=False, D=3)
        np.testing.assert_array_equal(ks.powers[0], np.ones((6, 6)))
        manual = np.ones((6, 6))
        for d in range(1, 4):
            manual = manual * ks.S
            np.testing.assert_array_equal(ks.powers[d], manual)

    def test_base_kernels_are_psd(self):
        data = random_dataset(n=8, r=4, seed=3)
        ks = build_base_kernels(data, include_constant=True, D=1)
        for K in (ks.kernel(j) for j in ks.indices):
            smallest = np.linalg.eigvalsh(K).min()
            assert smallest >= -1e-8 * np.linalg.norm(K)


class TestHadamardPower:
    def test_scalar_cube(self):
        out = hadamard_power(GramMatrix(np.array([[2.0]])), 3)
        np.testing.assert_array_equal(out.values, [[8.0]])

    def test_power_zero_is_ones(self):
        mat = GramMatrix(np.arange(9.0).reshape(3, 3) @ np.arange(9.0).reshape(3, 3).T)
        np.testing.assert_array_equal(hadamard_power(mat, 0).values, np.ones((3, 3)))

    def test_power_one_identical(self):
        mat = GramMatrix(np.eye(3) * 4)
        np.testing.assert_array_equal(hadamard_power(mat, 1).values, mat.values)

    def test_matches_repeated_multiply(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(5, 5))
        mat = GramMatrix(A @ A.T)
        repeated = np.ones((5, 5))
        for d in range(5):
            np.testing.assert_array_equal(hadamard_power(mat, d).values, repeated)
            repeated = repeated * mat.values

    def test_negative_power_errors(self):
        with pytest.raises(KernelError):
            hadamard_power(GramMatrix(np.eye(2)), -1)


class TestProductKernelMatrix:
    def test_single_factor(self):
        ks = build_base_kernels(random_dataset(), include_constant=False, D=2)
        np.testing.assert_array_equal(product_kernel_matrix(ks, (2,)).values, ks.kernel(2))

    def test_empty_index_is_ones(self):
        ks = build_base_kernels(random_dataset(), include_constant=False, D=2)
        np.testing.assert_array_equal(product_kernel_matrix(ks, ()).values, np.ones((10, 10)))

    def test_pair_matches_raw_inputs(self):
        data = random_dataset(n=7, r=3, seed=5)
        ks = build_base_kernels(data, include_constant=False, D=2)
        x = data.inputs
        expected = np.outer(x[:, 0], x[:, 0]) * np.outer(x[:, 1], x[:, 1])
        np.testing.assert_allclose(product_kernel_matrix(ks, (1, 2)).values, expected, rtol=1e-12)

    def test_out_of_range_index(self):
        ks = build_base_kernels(random_dataset(r=2), include_constant=False, D=1)
        with pytest.raises(KernelError):
            product_kernel_matrix(ks, (3,))

    def test_products_are_psd(self):
        data = random_dataset(n=8, r=3, seed=6)
        ks = build_base_kernels(data, include_constant=True, D=3)
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = int(rng.integers(0, 4))
            idx = tuple(int(j) for j in rng.choice(ks.indices, size=d))
            K = product_kernel_matrix(ks, idx).values
            assert np.linalg.eigvalsh(K).min() >= -1e-8 * max(np.linalg.norm(K), 1.0)

    def test_sum_over_tuples_equals_power(self):
        # sum of all ordered degree-d products reproduces the d-th power of S
        data = random_dataset(n=6, r=3, seed=8)
        for const in (False, True):
            ks = build_base_kernels(data, include_constant=const, D=3)
            for d in range(4):
                total = np.zeros((6, 6))
                for idx in itertools.product(ks.indices, repeat=d):
                    total += product_kernel_matrix(ks, idx).values
                np.testing.assert_allclose(
                    total, ks.powers[d], rtol=1e-9, atol=1e-9 * np.abs(ks.powers[d]).max()
                )


class TestProductKernelCross:
    def test_query_equals_train(self):
        data = random_dataset(n=6, r=3, seed=9)
        ks = build_base_kernels(data, include_constant=False, D=2)
        idx = (1, 3)
        cross = product_kernel_cross(data.inputs, data.inputs, idx)
        np.testing.assert_allclose(cross, product_kernel_matrix(ks, idx).values, rtol=1e-12)

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
