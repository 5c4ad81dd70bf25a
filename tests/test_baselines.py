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
    confusion,
)

from helpers import biased_synthetic_pair, random_dataset


class TestBatchCalibrate:
    def test_hand_computed_example(self):
        # prior [0.8, 0.2]: the shifted scores [[0.1, -0.1], [-0.1, 0.1]]
        # flip the second row, which plain argmax predicts as class 0
        ds = ProbabilityDataset.from_arrays([[0.9, 0.1], [0.7, 0.3]], [0, 1])
        predictions = batch_calibrate(ds)
        assert predictions.tolist() == [0, 1]
        assert confusion(ds).tolist() == [[1, 0], [1, 0]]  # plain argmax predicts [0, 0]
        assert not predictions.flags.writeable

    def test_identical_samples_tie_break_to_zero(self):
        # every shifted score is exactly 0, so every row ties
        ds = ProbabilityDataset.from_arrays([[0.3, 0.7]] * 4, [0, 1, 0, 1])
        assert batch_calibrate(ds).tolist() == [0, 0, 0, 0]

    def test_uniform_prior_preserves_argmax(self):
        ds = ProbabilityDataset.from_arrays(
            [[0.9, 0.1], [0.1, 0.9], [0.3, 0.7], [0.7, 0.3]], [0, 1, 1, 0]
        )
        # prior [0.5, 0.5]; plain argmax predicts the labels, [0, 1, 1, 0]
        assert confusion(ds).tolist() == [[2, 0], [0, 2]]
        assert batch_calibrate(ds).tolist() == [0, 1, 1, 0]

    def test_invariant_to_sample_order(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 40, 3)
        perm = rng.permutation(40)
        shuffled = ProbabilityDataset.from_arrays(ds.probs[perm], ds.labels[perm])
        assert batch_calibrate(ds)[perm].tolist() == batch_calibrate(shuffled).tolist()

    def test_constant_shift_before_renormalization_is_absorbed(self):
        # adding the same vector to every row rescales all rows by one common
        # factor after renormalization, which the prior subtraction absorbs
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 30, 3)
        shift = np.array([0.2, 0.05, 0.1])
        shifted = ProbabilityDataset.from_arrays(
            ds.probs + shift, ds.labels, renormalize=True
        )
        assert batch_calibrate(ds).tolist() == batch_calibrate(shifted).tolist()


@pytest.fixture(scope="module")
def comparison(biased_pair, trained_full_objective):
    # the selection annealed on the optimization set, scored on the test set
    _, test = biased_pair
    return compare_methods(test, trained_full_objective.selection, WeightScale(30))


class TestCompareMethods:
    def test_rows_fully_populated(self, comparison):
        assert [r["method"] for r in comparison] == [
            "identity", "batch_calibration", "dnip"
        ]
        for row in comparison:
            assert list(row) == ["method", "accuracy", "error_rate", "cobias", "cobias_single"]
            for key in ("accuracy", "error_rate", "cobias", "cobias_single"):
                assert np.isfinite(row[key])

    def test_identity_row_matches_direct_report(self, comparison, biased_pair):
        _, test = biased_pair
        report = class_report(test)
        identity = comparison[0]
        assert identity["accuracy"] == report["overall_accuracy"]
        assert identity["cobias"] == report["cobias"]
        assert identity["cobias_single"] == report["cobias_single"]

    def test_dnip_row_matches_direct_report(self, comparison, biased_pair,
                                            trained_full_objective):
        _, test = biased_pair
        report = class_report(test, trained_full_objective.selection, WeightScale(30))
        dnip = comparison[2]
        assert dnip["method"] == "dnip"
        assert dnip["accuracy"] == report["overall_accuracy"]
        assert dnip["error_rate"] == 1.0 - report["overall_accuracy"]
        assert dnip["cobias"] == report["cobias"]
        assert dnip["cobias_single"] == report["cobias_single"]

    def test_dnip_row_beats_identity_cobias(self, comparison):
        identity, _, dnip = comparison
        assert dnip["cobias"] <= identity["cobias"]

    def test_class_count_mismatch_rejected(self):
        # a selection for 2 classes cannot score a 3-class test set
        rng = np.random.default_rng(1)
        with pytest.raises(ValidationError, match="selection has 2 entries, expected 3"):
            compare_methods(random_dataset(rng, 10, 3), WeightSelection((1, 1)), WeightScale(3))
