import numpy as np
import pytest

from polymkl import (
    Dataset,
    DatasetError,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    split,
    standardize,
    synthetic_target,
)
from polymkl.dataset import count_monomials


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path, "1,2,5\n0,1,2\n2,0,1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.inputs, [[1, 2], [0, 1], [2, 0]])
        np.testing.assert_array_equal(data.targets, [5, 2, 1])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DatasetError, match="no rows"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="cannot open"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "1,2,3\n1,2\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "1,2,3\n1,zap,3\n")
        with pytest.raises(DatasetError, match="row 2, column 2"):
            load_csv(path)

    def test_wide_file_shape(self, tmp_path):
        # 1000 rows x 21 columns, the shape of a typical benchmark table
        rng = np.random.default_rng(0)
        rows = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rng.normal(size=(1000, 21)))
        data = load_csv(write(tmp_path, rows + "\n"))
        assert data.n == 1000 and data.r == 20

    def test_row_order_preserved(self, tmp_path):
        path = write(tmp_path, "9,1\n8,2\n7,3\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.targets, [1, 2, 3])


class TestStandardize:
    def test_two_point_column(self):
        data = Dataset(inputs=np.array([[1.0], [3.0]]), targets=np.array([0.0, 2.0]))
        std, params = standardize(data)
        np.testing.assert_allclose(std.inputs[:, 0], [-1.0, 1.0])
        assert params.mean[0] == 2.0 and params.scale[0] == 1.0

    def test_constant_column(self):
        data = Dataset(inputs=np.array([[5.0], [5.0], [5.0]]), targets=np.array([1.0, 2.0, 3.0]))
        std, params = standardize(data)
        np.testing.assert_array_equal(std.inputs[:, 0], [0.0, 0.0, 0.0])
        assert params.scale[0] == 1.0

    def test_random_matrix_moments(self):
        rng = np.random.default_rng(7)
        data = Dataset(inputs=rng.normal(2, 3, size=(100, 5)), targets=rng.normal(size=100))
        std, _ = standardize(data)
        assert np.all(np.abs(std.inputs.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(std.inputs.std(axis=0) - 1) < 1e-9)
        assert abs(std.targets.mean()) < 1e-9
        assert abs(std.targets.std() - 1) < 1e-9

    def test_needs_two_rows(self):
        data = Dataset(inputs=np.array([[1.0]]), targets=np.array([2.0]))
        with pytest.raises(DatasetError):
            standardize(data)


class TestSplit:
    def rand_data(self, n=1000, r=3, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(inputs=rng.normal(size=(n, r)), targets=rng.normal(size=n))

    def test_sizes_and_disjointness(self):
        data = self.rand_data()
        train, val, test = split(data, 350, 150, 500, seed=7)
        assert (train.n, val.n, test.n) == (350, 150, 500)
        rows = {tuple(row) for part in (train, val, test) for row in part.inputs}
        assert len(rows) == 1000  # continuous data: collisions would mean overlap

    def test_identity_split(self):
        data = self.rand_data(n=20)
        train, val, test = split(data, 20, 0, 0, seed=1)
        assert train.n == 20 and val is None and test is None
        assert {tuple(r) for r in train.inputs} == {tuple(r) for r in data.inputs}

    def test_deterministic(self):
        data = self.rand_data()
        a = split(data, 10, 5, 5, seed=42)
        b = split(data, 10, 5, 5, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)

    def test_oversized_split_errors(self):
        with pytest.raises(DatasetError, match="sum"):
            split(self.rand_data(n=10), 8, 2, 1, seed=0)


class TestGenSynthetic:
    def test_benchmark_shape(self):
        spec = SyntheticSpec(r=5, n_train=500, n_test=1000, n_terms=10, max_degree=3, seed=0)
        train, test, truth = gen_synthetic(spec)
        assert train.n == 500 and test.n == 1000 and train.r == 5
        assert len(truth) == 10 and len(set(truth)) == 10
        assert all(1 <= len(t) <= 3 for t in truth)
        assert np.all(np.abs(train.inputs) <= 1.0)

    def test_degree_zero_constant_target(self):
        spec = SyntheticSpec(r=2, n_train=5, n_test=5, n_terms=1, max_degree=0, seed=3)
        train, test, truth = gen_synthetic(spec)
        assert truth == [()]
        np.testing.assert_array_equal(train.targets, np.ones(5))

    def test_cross_term_target(self):
        # find a seed whose single degree-2 term is x1*x2, then check the target
        for seed in range(200):
            spec = SyntheticSpec(r=2, n_train=20, n_test=5, n_terms=1, max_degree=2, seed=seed)
            train, _test, truth = gen_synthetic(spec)
            if truth == [(1, 2)]:
                np.testing.assert_allclose(
                    train.targets, train.inputs[:, 0] * train.inputs[:, 1], atol=0
                )
                return
        pytest.fail("no seed produced the cross term")

    def test_reproducible_from_truth(self):
        spec = SyntheticSpec(r=4, n_train=50, n_test=20, n_terms=6, max_degree=3, seed=11)
        train, test, truth = gen_synthetic(spec)
        np.testing.assert_array_equal(train.targets, synthetic_target(train.inputs, truth))
        np.testing.assert_array_equal(test.targets, synthetic_target(test.inputs, truth))

    def test_same_seed_identical_different_seed_not(self):
        spec = SyntheticSpec(r=3, n_train=30, n_test=10, n_terms=3, max_degree=2, seed=5)
        a_train, a_test, a_truth = gen_synthetic(spec)
        b_train, b_test, b_truth = gen_synthetic(spec)
        np.testing.assert_array_equal(a_train.inputs, b_train.inputs)
        np.testing.assert_array_equal(a_test.targets, b_test.targets)
        assert a_truth == b_truth
        c_train, _, _ = gen_synthetic(SyntheticSpec(3, 30, 10, 3, 2, seed=6))
        assert not np.array_equal(a_train.targets, c_train.targets)

    def test_too_many_terms(self):
        assert count_monomials(2, 1) == 2
        with pytest.raises(DatasetError, match="exceeds"):
            SyntheticSpec(r=2, n_train=5, n_test=5, n_terms=3, max_degree=1, seed=0)
