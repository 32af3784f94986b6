import csv
import string
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safs import (
    DataError,
    DiscreteDataset,
    DiscretizationSpec,
    FeatureSchema,
    SubgroupDescriptor,
    load_csv,
    stratify,
    subgroup_mask,
)
from safs.dataset import _encode_numeric
from synth import make_dataset, random_dataset, write_csv


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

    def test_infinite_cells_join_the_edge_bins_without_warning(self, tmp_path):
        path = write(tmp_path, "x,y\n1,1\n2,0\n3,1\ninf,0\ninf,1\n-inf,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path, "y")
        codes = ds.codes[:, 0].tolist()
        assert codes[5] == codes[0] == 0  # -inf with the smallest finite value
        assert codes[3] == codes[4] == codes[2] == ds.schemas[0].cardinality - 1

    def test_bin_count_checked_on_construction(self):
        for bad in (0, -1):
            with pytest.raises(DataError):
                DiscretizationSpec(bins=bad)

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


def same_dataset(a, b):
    return (a.schemas == b.schemas and a.codes.tolist() == b.codes.tolist()
            and a.outcome.tolist() == b.outcome.tolist())


MIXED = "x,c,y\n1.5,A,1\n2.5,B,0\n3.5,,1\n4.5,A,0\n"


class TestIngestRules:
    """Ingest rules pinned against the row-by-row csv.reader loader."""

    @pytest.mark.parametrize("text, row, fields", [
        ("x,c,y\n1.5,A,1\n2.5,0\n3.5,C,1\n", 3, 2),
        ("x,c,y\n1.5,A,1\n2.5,B,0\n3.5,C,1,extra\n", 4, 4),
        ("x,c,y\n1.5,A,1\n   \n3.5,C,1\n", 3, 1),
        ('x,c,y\n1.5,"A"\n2.5,B,0\n', 2, 2),
        ('x,c,y\n1.5,"A",1,\n2.5,B,0\n', 2, 4),
        ('x,c,y\n1.5,"A",1\n2.5,B,0\n3.5,"C,D"\n', 4, 2),
        ('x,c,y\n1.5,"A",1\n,B,0\n3.5,C\n', 4, 2),
    ])
    def test_row_length_error_names_the_row(self, tmp_path, text, row, fields):
        with pytest.raises(DataError, match=f"row {row} has {fields} fields, expected 3"):
            load_csv(write(tmp_path, text), "y")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_endings(self, tmp_path, newline):
        path = tmp_path / "eol.csv"
        path.write_bytes(MIXED.replace("\n", newline).encode())
        assert same_dataset(load_csv(path, "y"), load_csv(write(tmp_path, MIXED), "y"))

    def test_blank_lines_load_without_warning(self, tmp_path):
        text = "x,c,y\n\n1.5,A,1\n\n\n2.5,B,0\n3.5,,1\n4.5,A,0\n\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(write(tmp_path, text), "y")
        assert same_dataset(ds, load_csv(write(tmp_path, MIXED, "plain.csv"), "y"))

    def test_hash_is_an_ordinary_character(self, tmp_path):
        ds = load_csv(write(tmp_path, "#c,y\nA#1,1\n#B,0\n"), "y")
        assert ds.schemas[0].name == "#c"
        assert ds.schemas[0].values == ("A#1", "#B")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_quoted_newline_is_kept(self, tmp_path, newline):
        path = tmp_path / "nl.csv"
        text = f'c,y{newline}"a{newline}b",1{newline}plain,0{newline}'
        path.write_bytes(text.encode())
        ds = load_csv(path, "y")
        assert ds.schemas[0].values == (f"a{newline}b", "plain")
        assert ds.outcome.tolist() == [1, 0]

    def test_quoted_numbers_stay_numeric(self, tmp_path):
        ds = load_csv(write(tmp_path, 'x,y\n"1.5",1\n"2.5",0\n 3.5 ,1\n4.5,0\n'), "y")
        assert ds.schemas[0].values[0].startswith("(-inf,")
        assert ds.codes[:, 0].tolist() == sorted(set(ds.codes[:, 0].tolist()))

    def test_non_ascii_labels(self, tmp_path):
        ds = load_csv(write(tmp_path, "c,y\nÉté,1\n🙂,0\nÉté,0\n"), "y")
        assert ds.schemas[0].values == ("Été", "🙂")
        assert ds.codes[:, 0].tolist() == [0, 1, 0]

    def test_cells_that_float_accepts_are_numbers(self, tmp_path):
        rows = ["1_000,١٢,1", "2_000,٣٤,0", "3_000,٥٦,1", "4_000,٧٨,0", "5_000,٩٠,1"]
        ds = load_csv(write(tmp_path, "x,z,y\n" + "\n".join(rows) + "\n"), "y")
        for m in range(2):
            assert ds.schemas[m].values[0].startswith("(-inf,")
            assert ds.codes[:, m].tolist() == [0, 1, 2, 3, 4]

    def test_text_cell_after_numeric_rows_makes_a_text_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y\n1.5,1\n2.5,0\nabc,1\n1.5,0\n"), "y")
        assert ds.schemas[0].values == ("1.5", "2.5", "abc")
        assert ds.codes[:, 0].tolist() == [0, 1, 2, 0]

    def test_numeric_column_with_empty_first_cell(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y\n,1\n2.5,0\n3.5,1\n4.5,0\n"), "y")
        values = ds.schemas[0].values
        assert values[0].startswith("(-inf,") and values[-1] == "⟨missing⟩"
        assert ds.codes[0, 0] == len(values) - 1

    def test_whitespace_is_part_of_a_text_cell(self, tmp_path):
        ds = load_csv(write(tmp_path, "c,y\nA,1\n A,0\nA ,1\n"), "y")
        assert ds.schemas[0].values == ("A", " A", "A ")

    def test_not_utf8_text_is_a_data_error(self, tmp_path):
        path = tmp_path / "bytes.csv"
        for data in ("c,y\nA,1\n".encode("utf-16"), b"c,y\n\xff,1\nB,0\n", b"c,y\nA\0,1\n"):
            path.write_bytes(data)
            with pytest.raises(DataError):
                load_csv(path, "y")

    @pytest.mark.parametrize("long_cell", ["x" * 5000, '"x,' + "x" * 5000 + '"'])
    def test_one_long_cell_does_not_widen_its_column(self, tmp_path, long_cell):
        # a fixed-width column would hold 4 bytes x 5000 characters per row
        rows = [f"n{i % 7},c{i % 3},{i % 2}" for i in range(2000)]
        rows[1000] = f"{long_cell},c0,1"
        path = write(tmp_path, "note,c,y\n" + "\n".join(rows) + "\n")
        tracemalloc.start()
        try:
            ds = load_csv(path, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000
        assert ds.decode(0, ds.codes[1000, 0]) == long_cell.strip('"')
        assert ds.schemas[0].cardinality == 8

    def test_bad_outcome_cell_names_its_row(self, tmp_path):
        with pytest.raises(DataError, match=r"row 3: 'maybe' is not a binary value"):
            load_csv(write(tmp_path, "x,c,y\n1.5,A,1\n2.5,B,maybe\n3.5,C,0\n"), "y")


def reference_load(path, outcome_column, spec=DiscretizationSpec()):
    """The row-by-row loader: csv.reader rows, float() per cell and a dict
    per text column. Returns (schemas, codes, outcome) or a DataError."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    if len(set(header)) < len(header) or outcome_column not in header or not rows:
        return DataError("header")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            return DataError(f"row {i + 2} has {len(row)} fields, expected {len(header)}")
    y_col = header.index(outcome_column)
    outcome = []
    for i, row in enumerate(rows):
        value = {"0": 0, "false": 0, "1": 1, "true": 1}.get(row[y_col].strip().lower())
        if value is None:
            return DataError(f"row {i + 2}: {row[y_col]!r} is not a binary value")
        outcome.append(value)
    schemas, columns = [], []
    for j, name in enumerate(header):
        if j == y_col:
            continue
        cells = [row[j] for row in rows]
        try:
            parsed = np.array([float(c) if c != "" else np.nan for c in cells])
        except ValueError:
            parsed = None
        if parsed is not None and any(c != "" for c in cells):
            try:
                labels, codes = _encode_numeric(name, parsed, spec.bins, spec.missing_label)
            except DataError as exc:
                return exc
        else:
            index = {}
            for cell in cells:
                index.setdefault(spec.missing_label if cell == "" else cell, len(index))
            labels = list(index)
            codes = [index[spec.missing_label if c == "" else c] for c in cells]
        schemas.append(FeatureSchema(name, tuple(labels)))
        columns.append(codes)
    if not schemas:
        return DataError("no feature columns")
    return tuple(schemas), np.column_stack(columns).tolist(), outcome


CELLS = ["", "1", "2.5", "-3e2", " 4 ", "nan", "inf", "1_0", "١", "A", "b c", "#x",
         "é", "🙂", '"q,1"', '"a""b"', '"n\nl"', '"2.5"', "⟨missing⟩"]


@st.composite
def csv_texts(draw):
    """CSV text close to the ingest rules' edges: numeric-looking, empty, quoted,
    non-ASCII and '#' cells, mixed line endings, blank lines and now and then
    a row of the wrong length or a bad outcome cell."""
    n_features = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(n_features)] + ["y"]
    column_cells = [draw(st.lists(st.sampled_from(CELLS), min_size=1, max_size=4))
                    for _ in range(n_features)]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(st.sampled_from(cells)) for cells in column_cells]
        row.append(draw(st.sampled_from(["0", "1", "1", "0", "true", " FALSE"])))
        if draw(st.integers(0, 40)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["x"]
        if draw(st.integers(0, 40)) == 0:
            row[-1] = "2"
        lines.append(",".join(row))
        if draw(st.integers(0, 8)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestIngestProperties:

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_matches_the_row_by_row_loader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = reference_load(path, "y")
        if isinstance(expected, DataError):
            with pytest.raises(DataError) as err:
                load_csv(path, "y")
            if str(expected).startswith("row"):
                assert str(expected) in str(err.value)
            return
        ds = load_csv(path, "y")
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_write_csv_round_trip_keeps_partitions(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 30))
        cards = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        codes = [[data.draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)]
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        # text labels; "L" first keeps float() from reading one as a number
        label = st.text(string.printable + "é🙂,\"#", min_size=0, max_size=6).map("L".__add__)
        base = make_dataset(cards, np.array(codes).reshape(n, len(cards)), y)
        schemas = [FeatureSchema(s.name, tuple(data.draw(st.lists(
            label, min_size=s.cardinality, max_size=s.cardinality, unique=True))))
            for s in base.schemas]
        original = DiscreteDataset(schemas, base.codes, base.outcome)
        path = tmp_path_factory.mktemp("csv") / "round.csv"
        write_csv(path, original)
        ds = load_csv(path, "y")
        assert ds.outcome.tolist() == original.outcome.tolist()
        for m, schema in enumerate(original.schemas):
            got = [ds.decode(m, c) for c in ds.codes[:, m]]
            assert got == [schema.values[c] for c in original.codes[:, m]]


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
