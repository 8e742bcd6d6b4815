"""Tests for mixture generation and remaining-set construction."""

import json

import numpy as np
import pytest

from diffunlearn.data import (
    LabeledDataset,
    MixtureSpec,
    circle_mixture,
    gen_mixture,
    load_dataset,
    remain_set,
    save_dataset,
)
from diffunlearn.errors import DomainError, ShapeError


def line_dataset(positions, per_class=20):
    """Exact repeated points at 1-D positions (embedded in 2-D), no noise."""
    points = []
    labels = []
    for k, pos in enumerate(positions):
        points.extend([[float(pos), 0.0]] * per_class)
        labels.extend([k] * per_class)
    return LabeledDataset(np.array(points), np.array(labels))


class TestMixtureSpec:
    def test_rejects_single_class(self):
        with pytest.raises(DomainError):
            MixtureSpec(1, np.zeros((1, 2)), 1.0, 10)

    def test_rejects_duplicate_means(self):
        with pytest.raises(DomainError):
            MixtureSpec(2, np.zeros((2, 2)), 1.0, 10)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            MixtureSpec(2, np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0, 10)

    def test_rejects_mean_count_mismatch(self):
        with pytest.raises(ShapeError):
            MixtureSpec(3, np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0, 10)

    def test_circle_mixture_geometry(self):
        spec = circle_mixture()
        assert spec.num_classes == 5
        assert spec.sigma == 0.3
        assert spec.samples_per_class == 1000
        np.testing.assert_allclose(
            np.linalg.norm(spec.means, axis=1), np.full(5, 5.0), rtol=1e-12
        )


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [
        np.array([0.5, 1.7, 1.0]),
        np.array([0.0, 1.0, 2.0]),
        np.array([True, False, True]),
        np.array([0.5, 1.7, True]),
        [0, 1.5, 2],
    ])
    def test_non_integer_labels_rejected(self, labels):
        # A fraction or a bool is an error, never truncated to a class.
        with pytest.raises(DomainError, match="integers"):
            LabeledDataset(np.zeros((3, 2)), labels)

    def test_integer_labels_pass(self):
        for labels in (np.array([0, 2, 1], dtype=np.uint8), [0, 2, 1]):
            data = LabeledDataset(np.zeros((3, 2)), labels)
            assert data.labels.dtype == np.int64
            assert list(data.labels) == [0, 2, 1]
        empty = LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=int))
        assert len(empty) == 0

    @pytest.mark.parametrize("labels", [
        np.array([[0, 1], [2, 3]]),
        np.array([[0], [1], [2], [3]]),
        np.array(0),
    ])
    def test_labels_must_be_one_dimensional(self, labels):
        # A 2 x 2 label array used to flatten into four labels.
        with pytest.raises(ShapeError, match="1-D"):
            LabeledDataset(np.zeros((labels.size, 2)), labels)

    def test_owns_copies_of_the_callers_arrays(self):
        # float64 points and int64 labels used to be aliased and marked
        # read-only, locking the caller's own arrays.
        points, labels = np.zeros((3, 2)), np.array([0, 2, 1], dtype=np.int64)
        data = LabeledDataset(points, labels)
        assert points.flags.writeable and labels.flags.writeable
        points[0, 0], labels[0] = 5.0, 1
        assert data.points[0, 0] == 0.0 and data.labels[0] == 0
        assert not data.points.flags.writeable and not data.labels.flags.writeable

    def test_generated_and_loaded_sets_still_load(self, tmp_path):
        data = gen_mixture(circle_mixture(samples_per_class=5), 1)
        path = tmp_path / "data.jsonl"
        save_dataset(data, path)
        assert np.array_equal(load_dataset(path).labels, data.labels)
        path.write_text('{"x": [0.0, 1.0], "label": 1.5}\n')
        with pytest.raises(DomainError, match="integers"):
            load_dataset(path)


class TestGenMixture:
    def test_tiny_sigma_pins_points_to_means(self):
        spec = MixtureSpec(
            2, np.array([[0.0, 0.0], [3.0, -1.0]]), 1e-9, 50
        )
        data = gen_mixture(spec, 0)
        for k in range(2):
            sub = data.class_subset(k)
            assert np.all(np.abs(sub.points - spec.means[k]) < 1e-6)

    def test_class_means_within_standard_error(self):
        spec = circle_mixture()
        data = gen_mixture(spec, 123)
        bound = 3.0 * spec.sigma / np.sqrt(spec.samples_per_class)
        for k in range(spec.num_classes):
            sample_mean = data.class_subset(k).points.mean(axis=0)
            assert np.all(np.abs(sample_mean - spec.means[k]) < bound)

    def test_deterministic_per_seed(self):
        spec = circle_mixture(samples_per_class=40)
        a = gen_mixture(spec, 9)
        b = gen_mixture(spec, 9)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_label_blocks(self):
        spec = circle_mixture(samples_per_class=10)
        data = gen_mixture(spec, 0)
        assert len(data) == 50
        assert data.class_counts() == {k: 10 for k in range(5)}


def ten_class_data():
    angles = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    means = 5.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return gen_mixture(MixtureSpec(10, means, 0.3, 80), 4)


class TestBalancedRemainingSet:
    """remain_set at k_nearest = every retained class."""

    def test_ten_class_total_count(self):
        remain = remain_set(ten_class_data(), 3, 9, 50, 0)
        assert len(remain) == 450

    def test_histogram_uniform_and_pure(self):
        remain = remain_set(ten_class_data(), 3, 9, 50, 0)
        counts = remain.class_counts()
        assert 3 not in counts
        assert counts == {k: 50 for k in range(10) if k != 3}

    def test_zero_per_class_rejected(self):
        with pytest.raises(DomainError):
            remain_set(ten_class_data(), 3, 9, 0, 0)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(DomainError):
            remain_set(ten_class_data(), 3, 9, 81, 0)

    def test_deterministic_per_seed(self):
        data = ten_class_data()
        a = remain_set(data, 3, 9, 20, 7)
        b = remain_set(data, 3, 9, 20, 7)
        assert np.array_equal(a.points, b.points)


class TestSimilarityRestrictedSet:
    """remain_set below every retained class: the nearest classes only."""

    @pytest.mark.parametrize("k_nearest", [0, 5])
    def test_k_nearest_outside_retained_rejected(self, k_nearest):
        with pytest.raises(DomainError, match="k_nearest"):
            remain_set(line_dataset([0, 1, 2, 3, 4]), 0, k_nearest, 5, 0)

    def test_absent_forget_class_rejected(self):
        with pytest.raises(DomainError, match="absent"):
            remain_set(line_dataset([0, 1, 2, 3, 4]), 5, 2, 5, 0)

    def test_line_geometry_picks_adjacent_classes(self):
        data = line_dataset([0, 1, 2, 3, 4])
        assert list(remain_set(data, 0, 2, 1, 0).labels) == [1, 2]

    def test_circle_geometry_picks_angular_neighbors(self):
        data = gen_mixture(circle_mixture(samples_per_class=200), 11)
        assert list(remain_set(data, 0, 2, 1, 0).labels) == [1, 4]

    def test_exact_tie_breaks_to_lower_index(self):
        # Classes 0 and 1 sit at mirror positions, exactly equidistant from
        # class 2 at the origin; the tie must resolve to class 0.
        points = np.array(
            [[1.0, 0.0]] * 5 + [[-1.0, 0.0]] * 5 + [[0.0, 0.0]] * 5
        )
        labels = np.array([0] * 5 + [1] * 5 + [2] * 5)
        data = LabeledDataset(points, labels)
        assert list(remain_set(data, 2, 1, 1, 0).labels) == [0]

    def test_draws_equally_from_selected_classes(self):
        data = line_dataset([0, 1, 2, 3, 4], per_class=30)
        out = remain_set(data, 0, 2, 20, 3)
        assert out.class_counts() == {1: 20, 2: 20}

    def test_matches_balanced_size_for_fair_comparison(self):
        data = line_dataset([0, 1, 2, 3, 4], per_class=30)
        balanced = remain_set(data, 0, 4, 10, 0)
        restricted = remain_set(data, 0, 2, len(balanced) // 2, 0)
        assert len(restricted) == len(balanced)

    def test_full_k_matches_balanced_histogram(self):
        data = line_dataset([0, 1, 2, 3, 4], per_class=30)
        out = remain_set(data, 0, 4, 20, 5)
        assert out.class_counts() == {1: 20, 2: 20, 3: 20, 4: 20}

    def test_never_contains_forget_class(self):
        data = gen_mixture(circle_mixture(samples_per_class=100), 2)
        for forget in range(5):
            out = remain_set(data, forget, 2, 30, 1)
            assert forget not in out.class_counts()
            bal = remain_set(data, forget, 4, 15, 1)
            assert forget not in bal.class_counts()


def reference_remain_set(data, classes, per_class, seed):
    """The draw spelled out: per_class points per listed class, ascending."""
    gen = np.random.default_rng(seed)
    picked = [
        gen.choice(np.flatnonzero(data.labels == k), size=per_class, replace=False)
        for k in sorted(classes)
    ]
    return data.subset(np.concatenate(picked))


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_remain_set_matches_reference_draw(seed):
    # Ranked from class 3 on a 10-class circle: 2 and 4, then 1 and 5, then
    # 0 and 6; even k_nearest values stay clear of the mirror-image ties.
    data = ten_class_data()
    retained = [k for k in range(10) if k != 3]
    for k_nearest, classes in (
        (9, retained), (6, [0, 1, 2, 4, 5, 6]), (2, [2, 4])
    ):
        for per_class in (1, 7, 20):
            out = remain_set(data, 3, k_nearest, per_class, seed)
            ref = reference_remain_set(data, classes, per_class, seed)
            assert np.array_equal(out.points, ref.points)
            assert np.array_equal(out.labels, ref.labels)


class TestDatasetIO:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        data = gen_mixture(circle_mixture(samples_per_class=25), 5)
        path = tmp_path / "mixture.jsonl"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.points, data.points)
        assert np.array_equal(loaded.labels, data.labels)

    def test_record_format(self, tmp_path):
        data = LabeledDataset(np.array([[0.5, -1.25]]), np.array([2]))
        path = tmp_path / "one.jsonl"
        save_dataset(data, path)
        record = json.loads(path.read_text().strip())
        assert record == {"x": [0.5, -1.25], "label": 2}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bytes_match_json_dumps(self, tmp_path, dim):
        awkward = [-0.0, 5e-324, 1e16, 1e-5, -1.7976931348623157e308, 0.1 + 0.2]
        rng = np.random.default_rng(dim)
        values = np.concatenate([awkward * dim, 5.0 * rng.standard_normal(30 * dim)])
        points = values.reshape(-1, dim)
        labels = rng.integers(0, 12, size=len(points))
        data = LabeledDataset(points, labels)
        path = tmp_path / "data.jsonl"
        save_dataset(data, path)
        expected = "".join(
            json.dumps({"x": [float(v) for v in x], "label": int(k)}, allow_nan=False)
            + "\n"
            for x, k in zip(data.points, data.labels)
        )
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_raises_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "data.jsonl"
        save_dataset(LabeledDataset(np.array([[0.5, 1.0]]), np.array([0])), path)
        before = path.read_bytes()
        points = np.array([[0.5, 1.0], [2.0, bad], [3.0, 4.0]])
        with pytest.raises(ValueError):
            save_dataset(LabeledDataset(points, np.array([0, 1, 2])), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DomainError):
            load_dataset(path)
