import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from cobias import (
    ProbabilityDataset,
    ValidationError,
    WeightScale,
    WeightSelection,
    class_report,
    cobias,
    cobias_single,
    confusion,
    odd_classes,
)
from cobias.metrics import accuracy_from_counts, check_mu, pmi_from_counts, report_document

from helpers import REFERENCE_COUNTS, REFERENCE_ROW_TOTALS, dataset_from_confusion


def _row(probs) -> ProbabilityDataset:
    """One-sample dataset holding a single probability vector, labeled 0, so
    row 0 of its confusion counts is the one-hot prediction."""
    return ProbabilityDataset.from_arrays([probs], [0])


class TestPredict:
    def test_reweighting_flips_argmax(self):
        # coefficients (0.4, 1.0, 1.0) from a 5-point scale
        scale = WeightScale(5)
        sel = WeightSelection((2, 5, 5))
        assert sel.coefficients(scale).tolist() == [0.4, 1.0, 1.0]
        assert confusion(_row([0.5, 0.3, 0.2]), sel, scale)[0].tolist() == [0, 1, 0]

    def test_tie_breaks_to_lowest_index(self):
        assert confusion(_row([0.5, 0.5]))[0].tolist() == [1, 0]

    def test_identity_is_plain_argmax(self):
        assert confusion(_row([0.1, 0.9]))[0].tolist() == [0, 1]

    def test_scaling_coefficients_preserves_argmax(self):
        # equal coefficients at any scale position keep the identity argmax
        for k, idx in ((2, 1), (2, 2), (10, 3)):
            scale = WeightScale(k)
            sel = WeightSelection((idx, idx))
            assert confusion(_row([0.1, 0.9]), sel, scale)[0].tolist() == [0, 1]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            confusion(_row([0.5, 0.5]), WeightSelection((1, 1, 1)), WeightScale(2))


class TestConfusion:
    def test_direct_count(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.8, 0.2]], [0, 1])
        assert confusion(ds).tolist() == [[1, 0], [1, 0]]

    def test_all_correct_is_diagonal(self):
        ds = ProbabilityDataset.from_arrays(
            [[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.2, 0.1, 0.7]], [0, 1, 2]
        )
        assert confusion(ds).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_reference_counts_reconstruction(self):
        ds = dataset_from_confusion(REFERENCE_COUNTS)
        counts = confusion(ds)
        assert counts.tolist() == [list(r) for r in REFERENCE_COUNTS]
        assert counts.sum(axis=1).tolist() == list(REFERENCE_ROW_TOTALS)
        assert counts.sum() == 5000
        report = class_report(ds)
        assert report["overall_accuracy"] == 3742 / 5000

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=50)
        ds = ProbabilityDataset.from_arrays(probs, rng.integers(0, 3, 50))
        assert np.array_equal(confusion(ds), confusion(ds))

    def test_selection_without_its_scale_is_refused(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.8, 0.2]], [0, 1])
        with pytest.raises(ValidationError, match="^a weight selection requires its scale$"):
            confusion(ds, WeightSelection((1, 1)))

    def test_counts_are_a_read_only_int64_array(self):
        ds = dataset_from_confusion([[3, 1, 0], [0, 4, 2], [1, 0, 5]])
        counts = confusion(ds)
        assert type(counts) is np.ndarray
        assert counts.dtype == np.int64
        assert counts.shape == (3, 3)
        with pytest.raises(ValueError):
            counts[0, 0] = 7


class TestCobias:
    def test_reference_accuracies(self):
        # pairwise-enumeration oracle over the rounded reference accuracies
        acc = (0.85, 0.98, 0.97, 0.19)
        expected = sum(abs(a - b) for a, b in combinations(acc, 2)) / 6
        got = cobias(acc)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.415, abs=1e-9)

    def test_equal_accuracies_give_zero(self):
        for x in (0.0, 0.3, 1.0):
            assert cobias([x] * 5) == 0.0

    def test_two_class_extreme(self):
        assert cobias([1.0, 0.0]) == 1.0

    def test_unequal_subnormal_accuracies_stay_positive(self):
        # the exact mean, 5e-324 / 2, lies below the least subnormal
        assert cobias([0.0, 5e-324, 5e-324, 5e-324]) == 5e-324

    def test_matches_pair_enumeration_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            v = rng.random(n)
            expected = sum(abs(a - b) for a, b in combinations(v, 2)) / math.comb(n, 2)
            assert cobias(v) == pytest.approx(expected, abs=1e-12)

    def test_undefined_classes_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded"):
            got = cobias([0.5, np.nan, 1.0])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ValidationError):
            cobias([0.5])


class TestOddClasses:
    def test_reference_rows(self):
        ds = dataset_from_confusion(REFERENCE_COUNTS)
        odd = odd_classes(confusion(ds))
        # class 3's mispredictions are dominated by class 2 (822 of them);
        # class 0's off-diagonal (64, 126, 3) also peaks at class 2
        assert odd == (2, 2, 0, 2)

    def test_diagonal_matrix_has_no_odd_classes(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        assert odd_classes(confusion(ds)) == (None, None)

    def test_tie_breaks_to_lowest_index(self):
        counts = [[0, 2, 2], [0, 1, 0], [0, 0, 1]]
        ds = dataset_from_confusion(counts)
        assert odd_classes(confusion(ds))[0] == 1

    def test_odd_class_never_self(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(n), size=100)
            ds = ProbabilityDataset.from_arrays(probs, rng.integers(0, n, 100))
            for i, j in enumerate(odd_classes(confusion(ds))):
                assert j != i


class TestCobiasSingle:
    def test_reference_value(self):
        ds = dataset_from_confusion(REFERENCE_COUNTS)
        counts = confusion(ds)
        acc = accuracy_from_counts(counts)
        odd = odd_classes(counts)
        got = cobias_single(acc, odd)
        # direct-computation oracle from the exact count fractions
        exact = [c[i] / t for i, (c, t) in enumerate(zip(REFERENCE_COUNTS, REFERENCE_ROW_TOTALS))]
        expected = sum(abs(exact[j] - exact[i]) for i, j in enumerate((2, 2, 0, 2))) / 4
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.2575, abs=0.005)

    def test_single_defined_row(self):
        # one off-diagonal error in row 0 toward class 1
        counts = [[5, 1], [0, 4]]
        ds = dataset_from_confusion(counts)
        counts = confusion(ds)
        acc = accuracy_from_counts(counts)
        got = cobias_single(acc, odd_classes(counts))
        assert got == pytest.approx(abs(acc[1] - acc[0]), abs=1e-12)

    def test_all_none_is_zero(self):
        # a perfectly diagonal confusion matrix has no odd class at all
        assert cobias_single([1.0, 1.0], (None, None)) == 0.0

    def test_unequal_subnormal_pair_stays_positive(self):
        # one gap of 5e-324 and two of 0: the exact mean rounds to 0
        assert cobias_single([0.0, 5e-324, 0.0], (2, 0, 0)) == 5e-324


class TestPmi:
    def test_hand_counted_example(self):
        # 4 samples, labels (0,0,1,1), predictions (0,1,1,1), mu=0:
        # f(joint_1)=0.5, f(pred_1)=0.75, f(true_1)=0.5 -> ln(4/3)
        ds = ProbabilityDataset.from_arrays(
            [[0.9, 0.1], [0.2, 0.8], [0.3, 0.7], [0.1, 0.9]], [0, 0, 1, 1]
        )
        pmi = pmi_from_counts(confusion(ds), 0.0)
        assert pmi[1] == pytest.approx(math.log(4 / 3), abs=1e-12)
        assert pmi[0] == pytest.approx(math.log((1 / 4) / ((1 / 4) * (1 / 2))), abs=1e-12)

    def test_exact_independence_gives_zero(self):
        # joint counts equal the product of the marginals: [[1,1],[1,1]]
        ds = ProbabilityDataset.from_arrays(
            [[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]], [0, 0, 1, 1]
        )
        pmi = pmi_from_counts(confusion(ds), 0.0)
        assert pmi[0] == 0.0
        assert pmi[1] == 0.0

    def test_never_predicted_class_with_smoothing(self):
        # class 1 never predicted; mu=0.001 keeps every ratio finite
        mu, m, n = 0.001, 100, 2
        probs = np.tile([0.9, 0.1], (m, 1))
        labels = np.array([0] * 50 + [1] * 50)
        ds = ProbabilityDataset.from_arrays(probs, labels)
        pmi = pmi_from_counts(confusion(ds), mu)
        # independent oracle: compute each smoothed ratio separately
        denom = m + mu * n
        f_joint = (0 + mu) / denom
        f_pred = (0 + mu) / denom
        f_true = (50 + mu) / denom
        assert np.all(np.isfinite(pmi))
        assert pmi[1] == pytest.approx(math.log(f_joint / (f_pred * f_true)), rel=1e-12)

    def test_zero_count_without_smoothing_names_class(self):
        probs = np.tile([0.9, 0.1], (10, 1))
        ds = ProbabilityDataset.from_arrays(probs, [0] * 5 + [1] * 5)
        with pytest.raises(ValidationError, match="class 1"):
            pmi_from_counts(confusion(ds), 0.0)
        # classes 1 and 3 are never predicted; the lower index is named
        counts = np.array([[2, 0, 1, 0], [1, 0, 1, 0], [0, 0, 3, 0], [1, 0, 1, 0]])
        with pytest.raises(ValidationError, match=r"^class 1: zero count"):
            pmi_from_counts(counts, 0.0)

    def test_positive_smoothing_always_finite(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(n), size=30)
            ds = ProbabilityDataset.from_arrays(probs, rng.integers(0, n, 30))
            assert np.all(np.isfinite(pmi_from_counts(confusion(ds), 1e-3)))

    def test_negative_mu_rejected(self):
        with pytest.raises(ValidationError):
            pmi_from_counts(np.array([[1, 0], [0, 1]]), mu=-0.1)

    @pytest.mark.parametrize("mu, bad", [(1e200, 0), (1e-200, 2), (1e-170, 2)])
    def test_mu_leaving_a_value_not_finite_is_refused(self, mu, bad):
        # class 2 has no true samples and no predictions: its denominator is
        # mu * mu, which a huge mu overflows and a tiny one underflows to 0
        counts = np.array([[2, 0, 0], [1, 1, 0], [0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(ValidationError) as refused:
                pmi_from_counts(counts, mu)
        assert str(refused.value) == f"mu={mu:g} makes the smoothed PMI of class {bad} not finite"

    def test_tiny_mu_runs_where_every_value_is_finite(self):
        # a prediction of class 2 keeps its denominator at (1 + mu) * mu
        pmi = pmi_from_counts(np.array([[2, 0, 0], [1, 0, 1], [0, 0, 0]]), 1e-200)
        assert np.all(np.isfinite(pmi))
        assert pmi_from_counts(np.array([[2, 0, 0], [1, 1, 0], [0, 0, 0]]), 1e-160)[2] > 300

    def test_class_totals_refuse_a_mu_some_counts_would_break(self):
        check_mu(1e-200, np.array([2, 2, 1]))
        check_mu(1e-160, np.array([2, 2, 0]))
        for mu, totals in [(1e-200, [2, 2, 0]), (1e200, [2, 2, 1])]:
            with pytest.raises(ValidationError, match="for some confusion counts on this dataset"):
                check_mu(mu, np.array(totals))


class TestReports:
    def test_reference_report(self):
        ds = dataset_from_confusion(REFERENCE_COUNTS)
        report = class_report(ds)
        assert report["overall_accuracy"] == pytest.approx(0.7484, abs=1e-9)
        np.testing.assert_allclose(
            report["per_class_accuracy"], [0.85, 0.98, 0.97, 0.19], atol=0.005
        )
        assert report["cobias"] == pytest.approx(0.415, abs=0.005)
        assert report["cobias_single"] == pytest.approx(0.2575, abs=0.005)
        assert report["odd_classes"] == [2, 2, 0, 2]

    def test_perfect_dataset(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.1, 0.9]], [0, 1])
        report = class_report(ds)
        assert report["overall_accuracy"] == 1.0
        assert report["cobias"] == 0.0
        assert report["cobias_single"] == 0.0

    def test_document_is_the_class_report_plus_pmi(self):
        ds = dataset_from_confusion(REFERENCE_COUNTS)
        doc = report_document(ds, mu=0.5)
        assert list(doc) == [*class_report(ds), "pmi", "mu"]
        assert doc == {**class_report(ds), "pmi": doc["pmi"], "mu": 0.5}
        assert doc["pmi"] == pmi_from_counts(confusion(ds), 0.5).tolist()

    def test_document_is_json_clean(self):
        import json

        ds = dataset_from_confusion([[3, 1], [0, 4]])
        doc = report_document(ds)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["num_samples"] == 8
        assert back["confusion"] == [[3, 1], [0, 4]]
        assert back["odd_classes"] == [1, None]
        assert back["schema_version"] == 1

    def test_reweighted_report_uses_selection(self):
        ds = ProbabilityDataset.from_arrays([[0.5, 0.3, 0.2]], [1])
        scale = WeightScale(5)
        sel = WeightSelection((2, 5, 5))
        assert confusion(ds, sel, scale).tolist() == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        # one true class: the other two have no accuracy, so the gap is 0
        with pytest.warns(UserWarning, match="classes without true samples excluded"), \
                pytest.warns(UserWarning, match="fewer than 2 classes with defined accuracy"):
            report = class_report(ds, sel, scale)
        assert report["overall_accuracy"] == 1.0
