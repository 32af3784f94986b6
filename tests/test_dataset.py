import builtins
import csv
import math
import re
import string
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safs import (
    ContingencyTable,
    DataError,
    DiscreteDataset,
    DiscretizationSpec,
    FeatureSchema,
    SubgroupDescriptor,
    load_csv,
    stratify,
    subgroup_mask,
)
from safs import tokenizer
from safs.dataset import DEFAULT_MISSING_LABEL, _bin_labels, _encode_numeric, _encode_text
from safs.tokenizer import _decimals, _distinct, _keys
from synth import make_dataset, noise_dataset, planted_dataset, random_dataset, write_csv


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

    @pytest.mark.parametrize("cells", [
        [str(1700000000 + i) for i in range(100)],  # Unix seconds: 1.7e+09 at 6 digits
        [f"{1 + i / 1e7:.7f}" for i in range(1, 11)],  # 1.0000001 ... 1.000001
    ])
    def test_close_bin_edges_print_apart(self, tmp_path, cells):
        path = write(tmp_path, "x,y\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells)))
        labels = load_csv(path, "y").schemas[0].values
        assert len(labels) == len(set(labels)) == 5

    def test_bin_labels_that_print_apart_keep_six_digits(self):
        edges = np.array([-0.5, 1.25, 3e9, 1234567.0])
        bounds = ["-inf"] + [format(e, "g") for e in edges] + ["inf"]
        assert _bin_labels(edges) == [f"({a}, {b}]" for a, b in zip(bounds, bounds[1:])]

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
        for text in ("", "\ufeff"):
            with pytest.raises(DataError, match="empty file"):
                load_csv(write(tmp_path, text), "y")
        with pytest.raises(DataError, match="no feature columns"):
            load_csv(write(tmp_path, "y\n1\n0\n"), "y")

    def test_header_name_longer_than_the_csv_field_limit(self, tmp_path):
        # the csv module refuses such a field; a name, like a cell, has no limit
        name = "a," + "a" * csv.field_size_limit()
        ds = load_csv(write(tmp_path, f'"{name}",y\nA,0\nB,1\n'), "y")
        assert [s.name for s in ds.schemas] == [name]
        write_csv(tmp_path / "again.csv", ds)
        assert same_dataset(load_csv(tmp_path / "again.csv", "y"), ds)


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

    @pytest.mark.parametrize("cells", [["nan", "nan"], ["inf", "-inf", "nan"], ["", "nan"]])
    def test_numeric_column_without_a_finite_cell_is_a_data_error(self, tmp_path, cells):
        rows = "".join(f"{cell},A,{i % 2}\n" for i, cell in enumerate(cells))
        with pytest.raises(DataError, match="numeric column 'x' has no finite value"):
            load_csv(write(tmp_path, "x,c,y\n" + rows), "y")

    def test_column_of_empty_cells_is_one_missing_category(self, tmp_path):
        ds = load_csv(write(tmp_path, "e,c,y\n,A,1\n,B,0\n,A,0\n"), "y")
        assert ds.schemas[0].values == (DEFAULT_MISSING_LABEL,)
        assert ds.codes[:, 0].tolist() == [0, 0, 0]

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

    @pytest.mark.parametrize("names, empty_x0, calls", [
        ("t0,t1,y", False, 0), ("x0,x1,t0,t1,y", False, 0), ("x0,x1,t0,t1,y", True, 0),
        ("w0,x1,t0,t1,y", False, 0), ("w0,w1,t0,t1,y", False, 1),
        ('x0,x1,"t0","t1",y', False, 0), ('"w0","w1",t0,t1,y', False, 1)])
    def test_np_loadtxt_parses_only_numeric_columns(self, tmp_path, monkeypatch,
                                                    names, empty_x0, calls):
        # the shape of the scan benchmark's inputs: short decimal columns (x),
        # which the word parse reads, an empty cell among them, and short text
        # columns. Wide %.8f decimals (w) are declined on every row: float()
        # decides one such column's cells, and one np.loadtxt pass parses two
        # columns of them. A column whose name is quoted has every cell
        # quoted too, which changes none of this
        rng = np.random.default_rng(3)

        def cell(name):
            value = {"x": f"{rng.lognormal():.5f}", "w": f"{rng.lognormal():.8f}",
                     "t": f"c{rng.integers(9)}", "y": str(rng.integers(2))}[name.strip('"')[0]]
            return f'"{value}"' if name[0] == '"' else value

        rows = [[cell(name) for name in names.split(",")] for _ in range(300)]
        if empty_x0:
            rows[17][0] = ""
        path = write(tmp_path, "\n".join([names] + [",".join(row) for row in rows]) + "\n")
        seen, decoded = [], []
        loadtxt, cells = np.loadtxt, tokenizer._cells
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(kw) or loadtxt(*a, **kw))
        monkeypatch.setattr(tokenizer, "_cells", lambda *a: decoded.extend(cells(*a)) or cells(*a))
        ds = load_csv(path, "y")
        assert [kw["usecols"] for kw in seen] == [[0, 1]] * calls
        # float() decides the w cells that no np.loadtxt pass parses
        assert len(decoded) == (0 if calls else 300 * names.count("w"))
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == reference_load(path, "y")

    def test_the_file_is_opened_once(self, tmp_path, monkeypatch):
        # %.8f cells are declined by the word parse and decided by float()
        rng = np.random.default_rng(4)
        rows = [f"{rng.lognormal():.8f},c{i % 3},{i % 2}" for i in range(300)]
        path = write(tmp_path, "w,t,y\n" + "\n".join(rows) + "\n")
        opened, decoded = [], []
        real_open, cells = builtins.open, tokenizer._cells
        monkeypatch.setattr(builtins, "open",
                            lambda *a, **kw: opened.append(a) or real_open(*a, **kw))
        monkeypatch.setattr(tokenizer, "_cells", lambda *a: decoded.extend(cells(*a)) or cells(*a))
        ds = load_csv(path, "y")
        monkeypatch.undo()
        assert opened == [(path, "rb")]
        assert len(decoded) == 300
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == reference_load(path, "y")

    def test_np_loadtxt_reads_cr_line_ends(self, tmp_path, monkeypatch):
        # two %.9f cells a row are declined: one np.loadtxt pass parses them,
        # with no float() fallback, on a file whose lines end with CR only
        rng = np.random.default_rng(5)
        rows = [f"{rng.lognormal():.9f},{rng.lognormal():.9f},{i % 2}" for i in range(300)]
        path = tmp_path / "cr.csv"
        path.write_bytes(("\r".join(["a,b,y"] + rows) + "\r").encode())
        seen, decoded = [], []
        loadtxt, cells = np.loadtxt, tokenizer._cells
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(kw) or loadtxt(*a, **kw))
        monkeypatch.setattr(tokenizer, "_cells", lambda *a: decoded.extend(cells(*a)) or cells(*a))
        ds = load_csv(path, "y")
        assert [kw["usecols"] for kw in seen] == [[0, 1]]
        assert decoded == []
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == reference_load(path, "y")

    def test_float_decides_only_the_declined_cells_np_loadtxt_rejects(self, tmp_path,
                                                                       monkeypatch):
        # three columns of %.8f cells, declined by the word parse, with a
        # short %.2f cell on every fifth row, which it reads: one np.loadtxt
        # pass runs, and rejects a 1_000.5 cell, which float() accepts.
        # float() then decides the declined cells only
        rng = np.random.default_rng(6)
        rows = [[f"{rng.lognormal():.{2 if i % 5 == 0 else 8}f}" for _ in range(3)]
                for i in range(300)]
        rows[7][1] = "1_000.5"
        path = write(tmp_path, "a,b,c,y\n" + "".join(
            ",".join(row + [str(i % 2)]) + "\n" for i, row in enumerate(rows)))
        seen, decoded = [], []
        loadtxt, cells = np.loadtxt, tokenizer._cells
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(kw) or loadtxt(*a, **kw))
        monkeypatch.setattr(tokenizer, "_cells", lambda *a: decoded.extend(cells(*a)) or cells(*a))
        ds = load_csv(path, "y")
        assert [kw["usecols"] for kw in seen] == [[0, 1, 2]]
        assert sorted(decoded) == sorted(c for row in rows for c in row if len(c) > 8 or "_" in c)
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == reference_load(path, "y")

    @pytest.mark.parametrize("fmt, low", [("%.5f", 2), ("%.8f", -4), ("%.12g", -4),
                                          ("%.6e", -4), ("repr", -4)])
    def test_parse_table_formats_by_np_loadtxt_and_by_float(self, tmp_path, monkeypatch,
                                                            fmt, low):
        # the cell formats of the numeric parse table in ROADMAP.md, on values
        # of both signs with magnitudes from 10**low to 10**4: every cell has
        # 9 or more bytes (%.5f ones too), so the word parse declines it, and
        # %.6e cells have exponents of both signs. One np.loadtxt pass parses
        # two such columns, and float() decides the cells of one
        rng = np.random.default_rng(7)
        values = rng.choice([-1, 1], (300, 2)) * 10 ** rng.uniform(low, 4, (300, 2))
        rows = [[repr(v) if fmt == "repr" else fmt % v for v in row] for row in values.tolist()]
        assert min(len(cell) for row in rows for cell in row) > 8
        seen, decoded = [], []
        loadtxt, cells = np.loadtxt, tokenizer._cells
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(kw) or loadtxt(*a, **kw))
        monkeypatch.setattr(tokenizer, "_cells", lambda *a: decoded.extend(cells(*a)) or cells(*a))
        for names, calls, floats in (["a", "b"], [[0, 1]], 0), (["a"], [], 300):
            path = write(tmp_path, ",".join(names + ["y"]) + "\n" + "".join(
                ",".join(row[:len(names)] + [str(i % 2)]) + "\n" for i, row in enumerate(rows)))
            seen.clear()
            decoded.clear()
            ds = load_csv(path, "y")
            assert [kw["usecols"] for kw in seen] == calls
            assert len(decoded) == floats
            expected = reference_load(path, "y")
            assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == expected

    @pytest.mark.parametrize("text", [
        'c,y\nA,1\n""\nB,0\n',  # a record of one empty field, not a blank line
        'c,y\n"""",1\nA,0\n"",1\n',
        'c,y\nA,"1"\nB,"0"\n',
        '"c,d",y\nA,1\nB,0\n',
        '\ufeff"c",y\nA,1\nB,0\n',
        'h,y\n5\'10",1\n6\'1",0\n5\'10",0\n',
        'c,y\n"ab"cd,1\nabcd,0\n"ab"c"d,1\n',
        'c,y\na""b,1\n"a""b",0\n',
        'c,y\nB,0\nA,"1',
        'c,y\nB,0\nA,"1\n',
        'c,y\nA,1\n"B,0\nC,1\n',
        'c,y\r\n"a\r\nb",1\r\nc,0\r\n',
        '\ufeff"a,b",y\r\n1,0\r\n',
        '"a\r\nb",y\nA,1\nB,0\n',
        '"a"b,y\nA,1\nB,0\n',
        '\n\r\n\rc,y\nA,1\nB,0\n',  # blank lines before the header
        '"c,y\nA,1\nB,0\n',  # a header quote that is never closed
        'c,c,y\nA,1\nB,C,0\n',  # a bad header is reported before a short row
    ])
    def test_quote_edges_read_as_csv_reader_does(self, tmp_path, text):
        path = tmp_path / "quotes.csv"
        path.write_bytes(text.encode())
        expected = reference_load(path, "y")
        if isinstance(expected, DataError):
            with pytest.raises(DataError, match=re.escape(str(expected))):
                load_csv(path, "y")
        else:
            ds = load_csv(path, "y")
            assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == expected

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
    if len(set(header)) < len(header):
        return DataError("duplicate column name")
    if outcome_column not in header:
        return DataError(f"outcome column {outcome_column!r} not found in header")
    if len(header) < 2:
        return DataError("no feature columns besides the outcome")
    if not rows:
        return DataError("no data rows")
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
    return tuple(schemas), np.column_stack(columns).tolist(), outcome


# plain decimals on both sides of the 8-byte word, and cells float() takes
# that the word parse declines
NUMBERS = ["1", "2.5", "-3e2", " 4 ", "nan", "inf", "1_0", "١", "-0.0", ".5", "5.", "12345678",
           "123.45678", "0.30000000000000004"]
CELLS = NUMBERS + ["", "A", "b c", "#x", "é", "🙂", '"q,1"', '"a""b"', '"n\nl"', '"r\r\nl"', '"\r"',
                   '"2.5"', "⟨missing⟩", '""', '5\'10"', '"ab"cd', 'a""b']
# unquoted text cells of 0-20 UTF-8 bytes, on both sides of the 8-byte key
# word, with 2- and 4-byte code points and leading and trailing spaces
BYTE_TEXTS = st.text(st.sampled_from("ab é🙂"), max_size=20).map(
    lambda text: text.encode()[:20].decode(errors="ignore"))


# header cells as written, each with the name csv.reader reads from it
NAMES = {"c": "c", "é🙂": "é🙂", "#h": "#h", '"a,b"': "a,b", '"l\nf"': "l\nf", '"c\rr"': "c\rr",
         '"cr\r\nlf"': "cr\r\nlf", '"q""d"': 'q"d', '"ab"cd': "abcd", '"é,🙂"': "é,🙂",
         '5\'10"': '5\'10"', 'a""b': 'a""b', '""': "", '"1.5"': "1.5"}


@st.composite
def csv_texts(draw):
    """CSV text close to the ingest rules' edges: numeric-looking, empty, quoted
    (with a comma, LF, CR or CRLF inside),
    non-ASCII, '#' and unquoted text cells of up to 20 bytes, quotes that are
    text, numeric-looking columns with a later text or empty cell, a line
    ending drawn per line (so "\r\r\n" and "\n\r" occur), blank lines, a
    quoted outcome cell, and now and then a row of the wrong length, a bad
    outcome cell or a file that ends inside an unclosed quote. The header's
    names are such cells too, distinct once read; the outcome's is quoted
    now and then, and a byte-order mark now and then starts the file."""
    n_features = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(sorted(NAMES)), min_size=n_features,
                           max_size=n_features, unique_by=NAMES.get))
    header.append(draw(st.sampled_from(["y", "y", '"y"'])))
    column_cells, intruders = [], []
    for _ in range(n_features):
        if draw(st.booleans()):
            column_cells.append(draw(st.lists(st.sampled_from(CELLS) | BYTE_TEXTS,
                                              min_size=1, max_size=4)))
            intruders.append(None)
        else:
            column_cells.append(draw(st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4)))
            intruders.append(draw(st.sampled_from([None, "", "A", "1 x", "é"])))
    rows = [[draw(st.sampled_from(cells)) for cells in column_cells]
            for _ in range(draw(st.integers(1, 12)))]
    for j, cell in enumerate(intruders):
        if cell is not None and len(rows) > 1:
            rows[draw(st.integers(1, len(rows) - 1))][j] = cell
    lines = [",".join(header)]
    for row in rows:
        row.append(draw(st.sampled_from(["0", "1", "1", "0", "true", " FALSE", '"1"', '"0"'])))
        if draw(st.integers(0, 40)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["x"]
        if draw(st.integers(0, 40)) == 0:
            row[-1] = "2"
        lines.append(",".join(row))
        if draw(st.integers(0, 8)) == 0:
            lines.append("")
    eol = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.integers(0, 20)) == 0:
        # the last cell opens a quote that the file never closes
        head, comma, tail = lines[-1].rpartition(",")
        lines[-1] = head + comma + '"' + tail
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(line + draw(eol) for line in lines[:-1]) + lines[-1] + draw(
        st.one_of(st.just(""), eol))


def _spans(cells):
    """Python strings as the byte spans of one buffer, joined by NUL: the
    (data, lo, hi) of a column that the ingest helpers take."""
    data = "\0".join(cells).encode()
    nuls = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 0)
    return data + bytes(8), np.append(-1, nuls), np.append(nuls, len(data))


def dict_encode(cells, missing_label):
    """First-appearance codes from a dict; empty cells are the missing label."""
    index, codes = {}, []
    for cell in cells:
        codes.append(index.setdefault(cell or missing_label, len(index)))
    return list(index), codes


@st.composite
def text_columns(draw):
    """A text column and its missing label. Cells hold up to a drawn number
    of ASCII, 2-byte, BMP, astral and last code points, so some columns key
    into one 64-bit word and some do not; empty cells and cells equal
    to the missing label are mixed in."""
    missing_label = draw(st.sampled_from([DEFAULT_MISSING_LABEL, "a", "?"]))
    longest = draw(st.integers(0, 10))
    cell = st.one_of(
        st.text(st.sampled_from("ab\u00e9\u4e00\U0001f642\U0010ffff"), max_size=longest),
        st.sampled_from(["", missing_label]))
    return draw(st.lists(cell, min_size=1, max_size=40)), missing_label


@st.composite
def zero_columns(draw):
    """Numeric cells with -0.0 and 0.0 mixed among few other values, so that
    zero edges are common, and an order of them."""
    cells = draw(st.lists(st.sampled_from([0.0, -0.0, 0.0, -0.0, -0.2, 1.0, 2.5, -3.0,
                                           np.inf, np.nan]), min_size=1, max_size=30)
                 .filter(lambda cells: np.isfinite(cells).any()))
    return cells, draw(st.permutations(range(len(cells))))


def quantile_edges(parsed, bins):
    """The interior bin edges: np.quantile over the finite cells in their
    own order, -0.0 read as 0.0, each edge kept only when some cell lies
    between it and the last kept edge and some cell lies above it."""
    finite = parsed[np.isfinite(parsed)] + 0.0
    kept = [-np.inf]
    for edge in np.quantile(finite, np.linspace(0.0, 1.0, bins + 1)[1:-1]):
        if ((finite > kept[-1]) & (finite <= edge)).any() and (finite > edge).any():
            kept.append(edge)
    return np.array(kept[1:])


def digitize_codes(parsed, bins):
    """Numeric codes by np.digitize over the loader's quantile edges, with
    the missing code after the bins."""
    edges = quantile_edges(parsed, bins)
    codes = np.digitize(parsed, edges, right=True)
    codes[np.isnan(parsed)] = edges.size + 1
    return codes.tolist()


class TestIngestProperties:

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan]),
               st.floats(-1e6, 1e6)), min_size=1, max_size=40),
           bins=st.integers(1, 8))
    def test_numeric_codes_match_digitize(self, cells, bins):
        parsed = np.array(cells)
        if not np.isfinite(parsed).any():
            with pytest.raises(DataError, match="no finite value"):
                _encode_numeric("x", parsed, bins, DEFAULT_MISSING_LABEL)
            return
        labels, codes = _encode_numeric("x", parsed, bins, DEFAULT_MISSING_LABEL)
        assert codes.tolist() == digitize_codes(parsed, bins)
        printed = _bin_labels(quantile_edges(parsed, bins))
        assert labels[:len(printed)] == printed
        assert (labels[-1] == DEFAULT_MISSING_LABEL) == bool(np.isnan(parsed).any())

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.integers(-4, 4).map(float) | st.sampled_from(
               [-0.0, 0.5, np.inf, -np.inf, np.nan]) | st.floats(-10, 10),
               min_size=1, max_size=50).filter(lambda cells: np.isfinite(cells).any()),
           bins=st.integers(1, 8))
    @example(cells=[1.0, -1.0, 1.0, 3.0, 2.0], bins=5)  # an interpolated edge at 1.4
    @example(cells=[-1.0, -0.0, 0.0, 0.0, 2.0, 3.0], bins=5)  # an edge at 8.88e-16
    def test_every_bin_holds_a_record(self, cells, bins):
        labels, codes = _encode_numeric("x", np.array(cells), bins, DEFAULT_MISSING_LABEL)
        counts = np.bincount(codes, minlength=len(labels))
        binned = len(labels) - (labels[-1] == DEFAULT_MISSING_LABEL)
        assert counts[:binned].all(), (labels, counts)

    @settings(max_examples=300, deadline=None)
    @given(column=zero_columns(), bins=st.integers(1, 8))
    @example(column=([2.5, 0.0, -0.0, -0.2, -0.0], [3, 4, 0, 2, 1]), bins=5)
    def test_labels_do_not_depend_on_zero_signs_or_row_order(self, column, bins):
        cells, order = map(np.array, column)
        labels, codes = _encode_numeric("x", cells, bins, DEFAULT_MISSING_LABEL)
        again, moved = _encode_numeric("x", cells[order], bins, DEFAULT_MISSING_LABEL)
        assert again == labels
        assert moved.tolist() == codes[order].tolist()
        assert not any(re.search(r"-0[,\]]", label) for label in labels)

    @pytest.mark.parametrize("bins", [1, 5])
    def test_np_quantile_runs_once_per_numeric_column(self, tmp_path, monkeypatch, bins):
        # column m has -0.0 and 0 cells where its middle edges lie
        rows = ["-1,1.5,A,1", "-0.0,,B,0", "0,123.45678,A,0", "0,-0.25,B,1", "2,2,A,1", "3,2.5,B,0"]
        path = write(tmp_path, "m,n,c,y\n" + "\n".join(rows) + "\n")
        calls, quantile = [], np.quantile
        monkeypatch.setattr(np, "quantile", lambda *a, **kw: calls.append(a) or quantile(*a, **kw))
        ds = load_csv(path, "y", DiscretizationSpec(bins=bins))
        monkeypatch.undo()
        assert len(calls) == 2
        expected = reference_load(path, "y", DiscretizationSpec(bins=bins))
        assert (ds.schemas, ds.codes.tolist(), ds.outcome.tolist()) == expected

    @settings(max_examples=300, deadline=None)
    @given(column=text_columns())
    def test_encode_text_matches_a_dict(self, column):
        cells, missing_label = column
        expected = dict_encode(cells, missing_label)
        # keyed by bytes, and as Python strings when a cell is over the limit
        for limit in (np.inf, 0):
            labels, codes = _encode_text(*_distinct(*_spans(cells), limit), missing_label)
            assert (labels, codes.tolist()) == expected

    @pytest.mark.parametrize("longest", [3, 8, 9])
    @pytest.mark.parametrize("alphabet", ["\x01\x7f", "\x01a\x7f\u07ff\U0010ffff"])
    def test_encode_text_keeps_every_distinct_cell(self, alphabet, longest):
        # every string of up to the longest number of UTF-8 bytes, in shuffled
        # order: bytes that differ in the top or bottom bit, at every place of
        # a key word
        cells, grown = [], [""]
        while grown:
            cells += grown
            grown = [c + a for c in grown for a in alphabet if len((c + a).encode()) <= longest]
        cells = np.random.default_rng(0).permutation(cells * 2).tolist()
        assert _keys(*_spans(cells), np.inf).dtype == ("S16" if longest > 8 else "uint64")
        labels, codes = _encode_text(*_distinct(*_spans(cells), np.inf), DEFAULT_MISSING_LABEL)
        assert (labels, codes.tolist()) == dict_encode(cells, DEFAULT_MISSING_LABEL)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(st.text("0123456789.-+e _", max_size=10) | st.builds(
        format, st.floats(), st.sampled_from(["", "g", ".3g", ".0f", ".2f", ".5f", ".8f", ".2e"])),
        min_size=1, max_size=30))
    @example(cells=["-0", "-0.0", ".5", "5.", "-.5", ".", "-", "00000000", "99999999",
                    "-9999999", "1234.5678", "123456789", ""])
    def test_word_parse_is_float_or_declines(self, cells):
        values, parsed = _decimals(*_spans(cells))
        for cell, value, done in zip(cells, values.tolist(), parsed.tolist()):
            if cell == "":
                assert done and math.isnan(value)
                continue
            plain = re.fullmatch(r"-?[0-9]*\.?[0-9]*", cell) and re.search("[0-9]", cell)
            # every plain decimal of up to 8 bytes is parsed, and nothing else
            assert done == bool(plain and len(cell) <= 8), cell
            if done:
                assert value.hex() == float(cell).hex(), cell

    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_matches_the_row_by_row_loader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = reference_load(path, "y")
        if isinstance(expected, DataError):
            with pytest.raises(DataError, match=re.escape(str(expected))):
                load_csv(path, "y")
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


def mask_counts(dataset, feature):
    """Records of each (value, outcome) pair of a feature, by boolean masks."""
    column, y = dataset.codes[:, feature], dataset.outcome
    return [[int(((column == v) & (y == o)).sum()) for o in (0, 1)]
            for v in range(dataset.schemas[feature].cardinality)]


class TestOutcomeCounts:

    @pytest.mark.parametrize("dataset", [
        random_dataset(3), noise_dataset(4), planted_dataset(5, n=500)[0],
        make_dataset([4, 1], [[1, 0], [1, 0], [3, 0]], [1, 0, 1]),  # values 0 and 2 unused
    ])
    def test_matches_mask_counts(self, dataset):
        for m in range(dataset.n_features):
            assert dataset.outcome_counts(m).tolist() == mask_counts(dataset, m)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_mask_counts_on_drawn_data(self, data):
        n = data.draw(st.integers(1, 30))
        cards = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        codes = [[data.draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)]
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        ds = make_dataset(cards, np.array(codes).reshape(n, len(cards)), y)
        for m in range(ds.n_features):
            assert ds.outcome_counts(m).tolist() == mask_counts(ds, m)


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


def test_codes_are_column_major_and_read_only(tmp_path):
    c_ordered = np.ascontiguousarray(random_dataset(6).codes)
    assert not c_ordered.flags.f_contiguous
    path = write(tmp_path, "x,c,y\n1.5,A,1\n2.5,B,0\n3.5,A,0\n")
    for ds in (make_dataset([3] * 4, c_ordered, [0, 1] * 100), load_csv(path, "y")):
        assert ds.codes.flags.f_contiguous and not ds.codes.flags.writeable
        assert all(ds.codes[:, m].flags.c_contiguous for m in range(ds.n_features))


def test_callers_arrays_stay_writable():
    # already F-contiguous int32 and int8: the dtypes a copy-if-needed skips
    codes, outcome = np.zeros((3, 1), np.int32), np.array([0, 1, 0], np.int8)
    ds = DiscreteDataset([FeatureSchema("f", ("a", "b"))], codes, outcome)
    codes[0, 0], outcome[0] = 1, 1
    assert ds.codes[:, 0].tolist() == [0, 0, 0] and ds.outcome.tolist() == [0, 1, 0]
    assert not ds.codes.flags.writeable and not ds.outcome.flags.writeable


def test_feature_index():
    ds = make_dataset([2, 3, 2], [[0, 1, 0], [1, 2, 1]], [1, 0], names=["sex", "age", "é"])
    assert [ds.feature_index(name) for name in ("sex", "age", "é")] == [0, 1, 2]
    with pytest.raises(DataError, match="unknown feature 'Sex'"):
        ds.feature_index("Sex")


@pytest.mark.parametrize("label", [0, 1])
def test_constant_outcome_has_no_rate(label):
    ds = make_dataset([2], [[0], [1], [0]], [label] * 3)
    with pytest.raises(DataError, match="degenerate"):
        ds.outcome_mean


@pytest.mark.parametrize("codes, outcome, message", [
    (np.zeros(3), [0, 1, 0], "matching the schemas"),
    (np.zeros((3, 2)), [0, 1, 0], "matching the schemas"),
    (np.zeros((0, 3)), [], "at least one record"),
    (np.zeros((3, 3)), [0, 1], "outcome length"),
    (np.zeros((3, 3)), [0, 1, 2], "binary"),
    ([[0, 0, 0], [2, 0, 0], [1, 0, 0]], [0, 1, 0], "out-of-range codes"),
    ([[0, 0, 0], [-1, 0, 0], [1, 0, 0]], [0, 1, 0], "out-of-range codes"),
    ([[0, 0, 0], [0, 2, 0], [0, 0, -1]], [0, 1, 0], "feature 'g' has out-of-range codes"),
    ([[0, 0, 5], [0, 0, 0], [1, 1, 1]], [0, 1, 0], "feature 'h' has out-of-range codes"),
])
def test_dataset_validation(codes, outcome, message):
    schemas = [FeatureSchema(name, ("a", "b")) for name in "fgh"]
    with pytest.raises(DataError, match=message):
        DiscreteDataset(schemas, codes, outcome)


def test_contingency_counts_non_negative():
    with pytest.raises(DataError, match="non-negative"):
        ContingencyTable(1, -1, 0, 0)


def test_schema_validation():
    with pytest.raises(DataError):
        FeatureSchema("f", ())
    with pytest.raises(DataError):
        FeatureSchema("f", ("a", "a"))
    with pytest.raises(DataError):
        FeatureSchema("f", ("a", ""))
