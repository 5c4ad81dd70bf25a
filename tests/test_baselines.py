import numpy as np
import pytest

from cobias import (
    ProbabilityDataset,
    ValidationError,
    WeightScale,
    WeightSelection,
    batch_calibrate,
    class_report,
    compare_methods,
    predict_dataset,
)

from helpers import biased_synthetic_pair, random_dataset


class TestBatchCalibrate:
    def test_hand_computed_example(self):
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.7, 0.3]], [0, 1])
        result = batch_calibrate(ds)
        np.testing.assert_allclose(result.prior, [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(result.scores, [[0.1, -0.1], [-0.1, 0.1]], atol=1e-15)
        assert result.predictions.tolist() == [0, 1]

    def test_identical_samples_tie_break_to_zero(self):
        ds = ProbabilityDataset.from_arrays([[0.3, 0.7]] * 4, [0, 1, 0, 1])
        result = batch_calibrate(ds)
        np.testing.assert_array_equal(result.scores, 0.0)
        assert result.predictions.tolist() == [0, 0, 0, 0]

    def test_uniform_prior_preserves_argmax(self):
        ds = ProbabilityDataset.from_arrays(
            [[0.9, 0.1], [0.1, 0.9], [0.3, 0.7], [0.7, 0.3]], [0, 1, 1, 0]
        )
        result = batch_calibrate(ds)
        np.testing.assert_allclose(result.prior, [0.5, 0.5], atol=1e-15)
        assert result.predictions.tolist() == predict_dataset(ds).tolist()

    def test_invariant_to_sample_order(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 40, 3)
        perm = rng.permutation(40)
        shuffled = ProbabilityDataset.from_arrays(ds.probs[perm], ds.labels[perm])
        a = batch_calibrate(ds)
        b = batch_calibrate(shuffled)
        np.testing.assert_allclose(a.prior, b.prior, atol=1e-12)
        assert a.predictions[perm].tolist() == b.predictions.tolist()

    def test_constant_shift_before_renormalization_is_absorbed(self):
        # adding the same vector to every row rescales all rows by one common
        # factor after renormalization, which the prior subtraction absorbs
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 30, 3)
        shift = np.array([0.2, 0.05, 0.1])
        shifted = ProbabilityDataset.from_arrays(
            ds.probs + shift, ds.labels, renormalize=True
        )
        a = batch_calibrate(ds)
        b = batch_calibrate(shifted)
        assert a.predictions.tolist() == b.predictions.tolist()


@pytest.fixture(scope="module")
def comparison(biased_pair, trained_full_objective):
    # the selection annealed on the optimization set, scored on the test set
    _, test = biased_pair
    return compare_methods(test, trained_full_objective.selection, WeightScale(30))


class TestCompareMethods:
    def test_rows_fully_populated(self, comparison):
        assert [r.method for r in comparison] == [
            "identity", "batch_calibration", "dnip"
        ]
        for row in comparison:
            for cell in (row.accuracy, row.error_rate, row.cobias, row.cobias_single):
                assert np.isfinite(cell)

    def test_identity_row_matches_direct_report(self, comparison, biased_pair):
        _, test = biased_pair
        report = class_report(test)
        identity = comparison[0]
        assert identity.accuracy == report.overall
        assert identity.cobias == report.cobias
        assert identity.cobias_single == report.cobias_single

    def test_dnip_row_matches_direct_report(self, comparison, biased_pair,
                                            trained_full_objective):
        _, test = biased_pair
        report = class_report(test, trained_full_objective.selection, WeightScale(30))
        dnip = comparison[2]
        assert dnip.method == "dnip"
        assert dnip.accuracy == report.overall
        assert dnip.error_rate == 1.0 - report.overall
        assert dnip.cobias == report.cobias
        assert dnip.cobias_single == report.cobias_single

    def test_dnip_row_beats_identity_cobias(self, comparison):
        identity, _, dnip = comparison
        assert dnip.cobias <= identity.cobias

    def test_class_count_mismatch_rejected(self):
        # a selection for 2 classes cannot score a 3-class test set
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError, match="selection has 2 entries, expected 3"):
            compare_methods(random_dataset(rng, 10, 3), WeightSelection((1, 1)), WeightScale(3))
