import numpy as np
import pytest

from safs import (
    DataError,
    DiscretizationSpec,
    FeatureSchema,
    SubgroupDescriptor,
    load_csv,
    stratify,
    subgroup_mask,
)
from synth import make_dataset, random_dataset


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:

    def test_three_row_example(self, tmp_path):
        path = write(tmp_path, "sex,y\nF,1\nM,0\nF,0\n")
        ds = load_csv(path, "y")
        assert ds.n_features == 1
        assert ds.schemas[0].cardinality == 2
        assert ds.outcome_mean == pytest.approx(1 / 3)

    def test_numeric_five_quantile_bins(self, tmp_path):
        path = write(tmp_path, "x,y\n" + "".join(f"{v}.0,0\n" for v in range(1, 6)))
        ds = load_csv(path, "y")
        assert ds.schemas[0].cardinality == 5
        # one value per bin
        assert sorted(ds.codes[:, 0].tolist()) == [0, 1, 2, 3, 4]

    def test_missing_cell_gets_dedicated_category(self, tmp_path):
        path = write(tmp_path, "c,y\nA,1\n,0\nB,1\n")
        ds = load_csv(path, "y")
        assert "⟨missing⟩" in ds.schemas[0].values
        assert ds.decode(0, ds.codes[1, 0]) == "⟨missing⟩"

    def test_missing_numeric_cell(self, tmp_path):
        path = write(tmp_path, "x,y\n1.0,1\n,0\n3.0,1\n4.0,0\n")
        ds = load_csv(path, "y")
        assert ds.schemas[0].values[-1] == "⟨missing⟩"
        assert ds.decode(0, ds.codes[1, 0]) == "⟨missing⟩"

    @pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
    def test_nan_numeric_cell_is_missing(self, tmp_path, nan):
        got = load_csv(write(tmp_path, f"x,y\n1.0,1\n{nan},0\n3.0,1\n4.0,0\n"), "y")
        empty = load_csv(write(tmp_path, "x,y\n1.0,1\n,0\n3.0,1\n4.0,0\n", "e.csv"), "y")
        assert got.schemas == empty.schemas
        assert got.codes.tolist() == empty.codes.tolist()
        assert got.decode(0, got.codes[1, 0]) == "⟨missing⟩"

    def test_numeric_column_without_finite_value_rejected(self, tmp_path):
        for cells in (["nan", "NaN"], ["nan", ""], ["inf", "nan"]):
            text = "x,c,y\n" + "".join(f"{v},a,{i % 2}\n" for i, v in enumerate(cells))
            with pytest.raises(DataError, match="'x'"):
                load_csv(write(tmp_path, text), "y")

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("y,c\n1,A\n0,B\n".encode("utf-8-sig"))
        ds = load_csv(path, "y")
        assert ds.outcome.tolist() == [1, 0]
        assert [s.name for s in ds.schemas] == ["c"]

    def test_duplicate_header_name_rejected(self, tmp_path):
        with pytest.raises(DataError, match="'x'"):
            load_csv(write(tmp_path, "x,x,y\nA,B,1\nC,D,0\n"), "y")

    def test_constant_numeric_column_collapses_to_one_bin(self, tmp_path):
        path = write(tmp_path, "x,y\n2.0,1\n2.0,0\n2.0,1\n")
        ds = load_csv(path, "y")
        assert ds.schemas[0].cardinality == 1

    def test_outcome_accepts_true_false(self, tmp_path):
        path = write(tmp_path, "c,y\nA,TRUE\nB,False\n")
        ds = load_csv(path, "y")
        assert ds.outcome.tolist() == [1, 0]

    def test_rfc4180_quoted_comma(self, tmp_path):
        path = write(tmp_path, 'c,y\n"a,b",1\nplain,0\n')
        ds = load_csv(path, "y")
        assert ds.decode(0, ds.codes[0, 0]) == "a,b"

    def test_first_appearance_category_order(self, tmp_path):
        path = write(tmp_path, "c,y\nB,1\nA,0\nB,1\n")
        ds = load_csv(path, "y")
        assert ds.schemas[0].values == ("B", "A")

    def test_bins_spec_respected(self, tmp_path):
        path = write(tmp_path, "x,y\n" + "".join(f"{v},0\n" for v in range(1, 11)))
        ds = load_csv(path, "y", DiscretizationSpec(bins=2))
        assert ds.schemas[0].cardinality == 2

    def test_roundtrip_codes_to_labels(self, tmp_path):
        path = write(tmp_path, "c,d,y\nred,x,1\nblue,,0\nred,z,1\n")
        ds = load_csv(path, "y")
        cells = [["red", "x"], ["blue", "⟨missing⟩"], ["red", "z"]]
        for i, row in enumerate(cells):
            assert [ds.decode(m, ds.codes[i, m]) for m in range(2)] == row

    def test_errors(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv", "y")
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "a,b\n1,2\n"), "y")
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "a,y\nfoo,2\n"), "y")
        with pytest.raises(DataError):
            load_csv(write(tmp_path, "a,y\n"), "y")


class TestStratify:

    def test_symmetric_count(self):
        ds = make_dataset([2], [[0], [0], [1], [1]], [1, 0, 1, 0])
        t = stratify(ds, 0, 0)
        assert (t.alpha, t.beta, t.delta, t.gamma) == (1, 1, 1, 1)

    def test_degenerate_stratum(self):
        ds = make_dataset([1], [[0]] * 4, [1, 1, 1, 1])
        t = stratify(ds, 0, 0)
        assert (t.alpha, t.beta, t.delta, t.gamma) == (4, 0, 0, 0)

    def test_sex_example_complement(self):
        # Female / Male / Unknown: stratifying Female puts the other two
        # categories together in the complement
        ds = make_dataset([3], [[0], [1], [2], [0]], [1, 0, 1, 0],
                          names=["sex"])
        t = stratify(ds, 0, 0)
        assert t.alpha + t.beta == 2
        assert t.delta + t.gamma == 2
        assert t.total == ds.n_records

    def test_counts_sum_to_n_and_strata_partition(self):
        ds = random_dataset(3)
        for m in range(ds.n_features):
            sizes = 0
            for u in range(ds.schemas[m].cardinality):
                t = stratify(ds, m, u)
                assert t.total == ds.n_records
                sizes += t.alpha + t.beta
            assert sizes == ds.n_records

    def test_out_of_range(self):
        ds = random_dataset(0)
        with pytest.raises(DataError):
            stratify(ds, ds.n_features, 0)
        with pytest.raises(DataError):
            stratify(ds, 0, ds.schemas[0].cardinality)


class TestSubgroupMask:

    def test_empty_descriptor_matches_all(self):
        ds = random_dataset(1)
        assert subgroup_mask(ds, SubgroupDescriptor()).tolist() == list(range(ds.n_records))

    def test_single_constraint(self):
        ds = make_dataset([2], [[0], [1], [0]], [1, 0, 1])
        assert subgroup_mask(ds, {0: {0}}).tolist() == [0, 2]

    def test_and_of_ors_is_intersection(self):
        ds = random_dataset(2)
        d1 = {0: {0}}
        d2 = {1: {0, 1}}
        both = subgroup_mask(ds, {**d1, **d2})
        expected = set(subgroup_mask(ds, d1)) & set(subgroup_mask(ds, d2))
        assert set(both.tolist()) == expected

    def test_monotone(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            ds = random_dataset(seed)
            f = int(rng.integers(0, ds.n_features))
            card = ds.schemas[f].cardinality
            small = {f: {0}}
            before = set(subgroup_mask(ds, small).tolist())
            if card > 1:
                grown = set(subgroup_mask(ds, {f: {0, card - 1}}).tolist())
                assert before <= grown
            g = (f + 1) % ds.n_features
            tightened = set(subgroup_mask(ds, {**small, g: {0}}).tolist())
            assert tightened <= before

    def test_invalid_references(self):
        ds = random_dataset(4)
        with pytest.raises(DataError):
            subgroup_mask(ds, {ds.n_features: {0}})
        with pytest.raises(DataError):
            subgroup_mask(ds, {0: {ds.schemas[0].cardinality}})
        with pytest.raises(DataError):
            subgroup_mask(ds, {0: set()})


def test_dataset_immutable():
    ds = random_dataset(5)
    with pytest.raises(ValueError):
        ds.codes[0, 0] = 0
    with pytest.raises(ValueError):
        ds.outcome[0] = 0


def test_schema_validation():
    with pytest.raises(DataError):
        FeatureSchema("f", ())
    with pytest.raises(DataError):
        FeatureSchema("f", ("a", "a"))
    with pytest.raises(DataError):
        FeatureSchema("f", ("a", ""))
