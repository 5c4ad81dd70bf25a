import json

import numpy as np
import pytest

from cobias import (
    ArtifactError,
    DatasetFormatError,
    ObjectiveConfig,
    ProbabilityDataset,
    ReweightArtifact,
    RunProvenance,
    SyntheticSpec,
    ValidationError,
    WeightScale,
    WeightSelection,
    class_report,
    generate_synthetic,
    load_artifact,
    load_dataset,
    save_artifact,
    save_dataset,
)


class TestProbabilityDataset:
    def test_basic_construction(self):
        ds = ProbabilityDataset.from_arrays([[0.7, 0.3], [0.2, 0.8]], [0, 1])
        assert ds.num_samples == 2
        assert ds.num_classes == 2
        assert not ds.probs.flags.writeable
        assert not ds.labels.flags.writeable

    def test_detached_from_caller_arrays(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        ds = ProbabilityDataset.from_arrays(probs, [0, 1])
        probs[0, 0] = 0.0
        assert ds.probs[0, 0] == 0.7

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError, match="sum"):
            ProbabilityDataset.from_arrays([[0.7, 0.2]], [0])
        with pytest.raises(ValidationError, match="negative"):
            ProbabilityDataset.from_arrays([[1.2, -0.2]], [0])
        with pytest.raises(ValidationError, match="non-finite"):
            ProbabilityDataset.from_arrays([[float("nan"), 1.0]], [0])
        with pytest.raises(ValidationError, match="label"):
            ProbabilityDataset.from_arrays([[0.5, 0.5]], [2])
        with pytest.raises(ValidationError, match="at least 2 classes"):
            ProbabilityDataset.from_arrays([[1.0]], [0])

    def test_errors_carry_sample_index(self):
        with pytest.raises(ValidationError) as bad_sum:
            ProbabilityDataset.from_arrays([[0.5, 0.5], [0.7, 0.7]], [0, 1])
        assert bad_sum.value.sample == 1
        with pytest.raises(ValidationError, match="64-bit") as huge_label:
            ProbabilityDataset.from_arrays([[0.5, 0.5]] * 3, [0, 1, 10**30])
        assert huge_label.value.sample == 2

    def test_renormalize_divides_by_row_sum(self):
        ds = ProbabilityDataset.from_arrays([[0.7, 0.2]], [0], renormalize=True)
        s = 0.7 + 0.2
        assert ds.probs[0, 0] == 0.7 / s
        assert ds.probs[0, 1] == 0.2 / s

    def test_row_sums_within_tolerance(self):
        ds = ProbabilityDataset.from_arrays([[0.5, 0.5], [0.3, 0.7]], [0, 1])
        assert np.all(np.abs(ds.probs.sum(axis=1) - 1.0) <= 1e-6)

    def test_fingerprint_tracks_content(self):
        a = ProbabilityDataset.from_arrays([[0.7, 0.3]], [0])
        b = ProbabilityDataset.from_arrays([[0.7, 0.3]], [0])
        c = ProbabilityDataset.from_arrays([[0.7, 0.3]], [1])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestWeightScale:
    def test_values_end_at_one(self):
        scale = WeightScale(30)
        values = WeightSelection(tuple(range(1, 31))).coefficients(scale)
        assert values[-1] == 1.0
        assert np.all(np.diff(values) > 0)
        assert values[0] == 1.0 / 30

    def test_selection_coefficients(self):
        scale = WeightScale(30)
        sel = WeightSelection((3, 1, 1, 20))
        np.testing.assert_array_equal(
            sel.coefficients(scale), [3 / 30, 1 / 30, 1 / 30, 20 / 30]
        )

    def test_coefficients_are_the_scale_values_bit_for_bit(self):
        for k in range(1, 257):
            scale = WeightScale(k)
            every_point = WeightSelection(tuple(range(1, k + 1)))
            values = np.arange(1, k + 1, dtype=np.float64) / k
            assert every_point.coefficients(scale).tobytes() == values.tobytes()

    def test_selection_validation(self):
        scale = WeightScale(5)
        with pytest.raises(ValidationError):
            WeightSelection((0, 1)).validate(2, scale)
        with pytest.raises(ValidationError):
            WeightSelection((1, 6)).validate(2, scale)
        with pytest.raises(ValidationError):
            WeightSelection((1, 1, 1)).validate(2, scale)


class TestLoadDataset:
    def test_jsonl_field_mapping(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.7,0.3],"label":0}\n')
        ds = load_dataset(p, "jsonl")
        assert ds.probs[0].tolist() == [0.7, 0.3]
        assert ds.labels[0] == 0

    def test_csv_field_mapping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,1\n")
        ds = load_dataset(p, "csv")
        assert ds.probs[0].tolist() == [0.5, 0.5]
        assert ds.labels[0] == 1

    def test_jsonl_renormalize(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.7,0.2],"label":0}\n')
        ds = load_dataset(p, "jsonl", renormalize=True)
        s = 0.7 + 0.2
        assert ds.probs[0].tolist() == [0.7 / s, 0.2 / s]

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.9,0.1,0\n0.1,0.9,1\n0.4,0.6,0\n")
        ds = load_dataset(p, "csv")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.probs[2].tolist() == [0.4, 0.6]

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ('{"probs":[0.7,0.3] "label":0}\n', "line 0"),        # bad JSON
            ('{"probs":[0.7,0.3],"label":0}\n{"label":1}\n', "line 1"),
            ('{"probs":[0.7,"x"],"label":0}\n', "line 0"),
            ('{"probs":[0.7,0.3],"label":0}\n{"probs":[1.0],"label":0}\n', "line 1"),
        ],
    )
    def test_jsonl_errors_carry_line_numbers(self, tmp_path, content, fragment):
        p = tmp_path / "d.jsonl"
        p.write_text(content)
        with pytest.raises(DatasetFormatError, match=fragment):
            load_dataset(p, "jsonl")

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("0.5,0.5,x\n", "line 0"),             # non-numeric label
            ("0.5,foo,1\n", "line 0"),             # non-numeric probability
            ("0.5,0.5,0\n0.5,0.5\n", "line 1"),    # wrong arity
            ("0.5,0.5,1.5\n", "line 0"),           # fractional label
        ],
    )
    def test_csv_errors_carry_line_numbers(self, tmp_path, content, fragment):
        p = tmp_path / "d.csv"
        p.write_text(content)
        with pytest.raises(DatasetFormatError, match=fragment):
            load_dataset(p, "csv")

    def test_label_out_of_range_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5,0.5,0\n0.5,0.5,3\n")
        with pytest.raises(DatasetFormatError, match="line 1.*label 3"):
            load_dataset(p, "csv")

    def test_blank_lines_rejected(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n\n{"probs":[0.5,0.5],"label":1}\n')
        with pytest.raises(DatasetFormatError, match="line 1.*blank"):
            load_dataset(p, "jsonl")

    def test_zero_sum_row_under_renormalize(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n{"probs":[0.0,0.0],"label":0}\n')
        with pytest.raises(DatasetFormatError, match="zero-sum"):
            load_dataset(p, "jsonl", renormalize=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        with pytest.raises(DatasetFormatError, match="no samples"):
            load_dataset(p, "jsonl")

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"probs":[0.5,0.5],"label":0}\n')
        with pytest.raises(ValidationError, match="format"):
            load_dataset(p, "xml")

    def test_save_load_round_trip(self, tmp_path):
        ds = ProbabilityDataset.from_arrays(
            [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]], [0, 1]
        )
        for fmt in ("jsonl", "csv"):
            p = tmp_path / f"d.{fmt}"
            save_dataset(ds, p, fmt)
            back = load_dataset(p, fmt)
            np.testing.assert_array_equal(back.probs, ds.probs)
            np.testing.assert_array_equal(back.labels, ds.labels)


class TestGenerateSynthetic:
    def test_identity_bias_gives_perfect_accuracy(self):
        spec = SyntheticSpec(
            num_classes=2,
            samples_per_class=(50, 50),
            confusion_bias=((1.0, 0.0), (0.0, 1.0)),
            concentration=1e6,
            seed=0,
        )
        ds = generate_synthetic(spec)
        report = class_report(ds)
        assert report.overall == 1.0
        assert report.cobias == 0.0

    def test_symmetric_bias_accuracy_near_half(self):
        # With both rows uniform, each class wins the argmax about half the
        # time; 10k draws keep the empirical rate within a couple of percent.
        spec = SyntheticSpec(
            num_classes=2,
            samples_per_class=(5000, 5000),
            confusion_bias=((0.5, 0.5), (0.5, 0.5)),
            concentration=2.0,
            seed=7,
        )
        ds = generate_synthetic(spec)
        report = class_report(ds)
        assert abs(report.per_class[0] - 0.5) < 0.02
        assert abs(report.per_class[1] - 0.5) < 0.02
        assert 0.0 <= report.cobias <= 0.05

    def test_deterministic_for_fixed_seed(self):
        spec = SyntheticSpec(
            num_classes=3,
            samples_per_class=(10, 20, 30),
            confusion_bias=((0.8, 0.1, 0.1), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4)),
            concentration=5.0,
            seed=42,
        )
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert a.probs.tobytes() == b.probs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_mean_matches_bias_row(self):
        spec = SyntheticSpec(
            num_classes=3,
            samples_per_class=(20000, 1, 1),
            confusion_bias=((0.5, 0.3, 0.2), (0.2, 0.6, 0.2), (0.3, 0.3, 0.4)),
            concentration=3.0,
            seed=1,
        )
        ds = generate_synthetic(spec)
        mean = ds.probs[:20000].mean(axis=0)
        np.testing.assert_allclose(mean, [0.5, 0.3, 0.2], atol=0.01)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10,), ((1.0, 0.0), (0.0, 1.0)), 1.0, 0)
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10, 10), ((0.9, 0.0), (0.0, 1.0)), 1.0, 0)
        with pytest.raises(ValidationError):
            SyntheticSpec(2, (10, 10), ((1.0, 0.0), (0.0, 1.0)), 0.0, 0)


def _make_artifact(indices=(3, 1, 1, 20), k=30, fingerprint="abc123"):
    return ReweightArtifact(
        scale=WeightScale(k),
        selection=WeightSelection(indices),
        objective_config=ObjectiveConfig(),
        final_objective=0.25,
        provenance=RunProvenance(
            seed=0,
            schedule={"t_max": 200000.0, "t_min": 0.1, "alpha": 0.95,
                      "lambda": 5.0, "max_accepted": None, "seed": 0},
            dataset_fingerprint=fingerprint,
        ),
    )


class TestArtifactRoundTrip:
    def test_round_trip_preserves_indices_and_coefficients(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        back = load_artifact(p)
        assert back.selection.indices == (3, 1, 1, 20)
        assert back.scale.k_points == 30
        assert back.coefficients.tolist() == artifact.coefficients.tolist()
        assert back.final_objective == artifact.final_objective
        assert back.objective_config == artifact.objective_config
        assert back.provenance == artifact.provenance

    def test_top_indices_reload_as_unit_coefficients(self, tmp_path):
        artifact = _make_artifact(indices=(30, 30, 30, 30))
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        back = load_artifact(p)
        assert back.coefficients.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_corrupted_file_rejected(self, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{not json")
        with pytest.raises(ArtifactError, match="JSON"):
            load_artifact(p)

    def test_version_mismatch_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        doc["schema_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="version"):
            load_artifact(p)

    def test_missing_fingerprint_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        del doc["provenance"]["dataset_fingerprint"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError):
            load_artifact(p)

    def test_tampered_coefficients_rejected(self, tmp_path):
        artifact = _make_artifact()
        p = tmp_path / "a.json"
        save_artifact(artifact, p)
        doc = json.loads(p.read_text())
        doc["coefficients"][0] = 0.5
        p.write_text(json.dumps(doc))
        with pytest.raises(ArtifactError, match="coefficients"):
            load_artifact(p)
