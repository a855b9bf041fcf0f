"""Parsing, preprocessing, and split behavior of the data layer."""

import numpy as np
import pytest

from fourierdg import data
from fourierdg.data import (
    GeneMatrix,
    SampleMeta,
    align_genes,
    binarize_ic50,
    load_expression,
    load_metadata,
    lodo_split,
    match_metadata,
    select_hvg,
    subset_samples,
    write_expression,
    write_metadata,
    zscore_fit_apply,
)
from fourierdg.errors import AlignmentError, ParameterError, ParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadExpression:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path, "e.csv", "sample_id,g1,g2\ns1,1,2\ns2,3,4\n")
        gm = load_expression(path)
        assert gm.sample_ids == ["s1", "s2"]
        assert gm.gene_names == ["g1", "g2"]
        assert np.array_equal(gm.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_tab_delimited_equivalent(self, tmp_path):
        csv = load_expression(write(tmp_path, "e.csv", "sample_id,g1,g2\ns1,1,2\n"))
        tsv = load_expression(write(tmp_path, "e.tsv", "sample_id\tg1\tg2\ns1\t1\t2\n"))
        assert csv.gene_names == tsv.gene_names
        assert np.array_equal(csv.values, tsv.values)

    def test_duplicate_sample(self, tmp_path):
        path = write(tmp_path, "e.csv", "sample_id,g1\ns1,1\ns1,2\n")
        with pytest.raises(ParseError, match="'s1'"):
            load_expression(path)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "e.csv", "sample_id,g1,g2\ns1,1\n")
        with pytest.raises(ParseError, match="line 2"):
            load_expression(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "e.csv", "sample_id,g1\ns1,abc\n")
        with pytest.raises(ParseError, match="line 2.*'abc'"):
            load_expression(path)

    def test_non_finite_cell(self, tmp_path):
        path = write(tmp_path, "e.csv", "sample_id,g1\ns1,nan\n")
        with pytest.raises(ParseError, match="line 2"):
            load_expression(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "e.csv", "id,g1\ns1,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_expression(path)

    def test_write_read_round_trip(self, tmp_path):
        gm = GeneMatrix(["a", "b"], ["g1", "g2"],
                        np.array([[0.1, -2.5], [1e-7, 3.0]]))
        path = tmp_path / "out.csv"
        write_expression(path, gm)
        back = load_expression(path)
        assert np.array_equal(back.values, gm.values)


# (id, file text, expected outcome: None to parse, else the ParseError
# text, and whether the one-pass parser alone accepts the file)
PARSER_CASES = [
    ("plain", "sample_id,g1,g2\ns1,1,2\ns2,3.5,-4e-3\n", None, True),
    ("tsv", "sample_id\tg1\tg2\ns1\t1\t2\ns2\t3\t4\n", None, True),
    ("tsv-comma-cell", "sample_id\tg1\ns1\t1,5\n",
     "line 2: non-numeric value '1,5' for gene 'g1'", False),
    ("padded-cells", "sample_id , g1 ,g2\n  s1 ,  1.5 , 2 \n s2,3 , 4\n", None, True),
    ("underscore-digits", "sample_id,g1\ns1,1_0\n", None, True),
    ("header-only", "sample_id,g1,g2\n", None, True),
    ("no-genes", "sample_id\ns1\ns2\n", None, False),
    ("trailing-delimiter", "sample_id,g1,g2,\ns1,1,2,\n",
     "line 1: empty gene name in header field 4", False),
    ("trailing-delimiter-rows", "sample_id,g1,g2\ns1,1,2,\n",
     "line 2: expected 3 fields, got 4", False),
    ("quoted-header", '"sample_id","g1"\ns1,1\n',
     "line 1: first header field must be 'sample_id'", False),
    ("quoted-cell", 'sample_id,g1\ns1,"1"\n',
     "line 2: non-numeric value '\"1\"' for gene 'g1'", False),
    ("nan", "sample_id,g1,g2\ns1,1,2\ns2,nan,2\n",
     "line 3: non-finite value 'nan' for gene 'g1'", False),
    ("inf", "sample_id,g1,g2\ns1,1,-inf\n",
     "line 2: non-finite value '-inf' for gene 'g2'", False),
    ("overflow", "sample_id,g1\ns1,1e400\n",
     "line 2: non-finite value '1e400' for gene 'g1'", False),
    ("ragged", "sample_id,g1,g2\ns1,1,2\ns2,1\n",
     "line 3: expected 3 fields, got 2", False),
    ("first-error-wins", "sample_id,g1,g2\ns1,x,2\ns2,1\n",
     "line 2: non-numeric value 'x' for gene 'g1'", False),
    ("duplicate-sample", "sample_id,g1\ns1,1\ns2,2\n s1 ,3\n",
     "line 4: duplicate sample_id 's1'", False),
    ("duplicate-gene", "sample_id,g1,g1\ns1,1,2\n",
     "line 1: duplicate gene names in header", False),
    ("empty", "", "line 1: empty expression file", False),
    ("blank-only", "\n  \n", "line 1: empty expression file", False),
]


def parse_outcome(parse, path):
    try:
        gm = parse(path)
    except ParseError as e:
        return str(e)
    return gm.sample_ids, gm.gene_names, gm.values.shape, gm.values.tobytes()


def parse_checked(path):
    """The line-by-line parser alone, without the one-pass attempt."""
    lines = data._read_lines(path)
    delim, gene_names = data._expression_header(lines)
    sample_ids, values = data._parse_rows_checked(lines[1:], delim, gene_names)
    return GeneMatrix(sample_ids, gene_names, values)


class TestParserCases:
    """load_expression must agree exactly with the line-by-line parser."""

    @pytest.mark.parametrize(
        "text,expected,fast", [c[1:] for c in PARSER_CASES],
        ids=[c[0] for c in PARSER_CASES],
    )
    def test_same_result_as_checked_parser(self, tmp_path, text, expected, fast):
        path = write(tmp_path, "e.csv", text)
        got = parse_outcome(load_expression, path)
        assert got == parse_outcome(parse_checked, path)
        if expected is None:
            assert not isinstance(got, str), got
        else:
            assert got == expected
        if expected is None or not expected.startswith("line 1:"):
            lines = data._read_lines(path)
            delim, genes = data._expression_header(lines)
            one_pass = data._parse_rows_fast(lines[1:], delim, len(genes))
            assert (one_pass is not None) == fast

    def test_padded_and_underscore_values(self, tmp_path):
        gm = load_expression(write(
            tmp_path, "e.csv", "sample_id , g1 ,g2\n  s1 ,  1.5 , 1_0 \n"))
        assert gm.sample_ids == ["s1"] and gm.gene_names == ["g1", "g2"]
        assert np.array_equal(gm.values, [[1.5, 10.0]])


WRITE_MATRIX = GeneMatrix(
    ["s1", "s2"], ["g1", "g2", "g3"],
    np.array([[1e-7, -0.0, 0.1], [1e16, 123456789.125, -2.5e-300]]),
)


class TestWriteExpressionBytes:
    @pytest.mark.parametrize("delimiter,expected", [
        (",", "sample_id,g1,g2,g3\ns1,1e-07,-0.0,0.1\n"
              "s2,1e+16,123456789.125,-2.5e-300\n"),
        ("\t", "sample_id\tg1\tg2\tg3\ns1\t1e-07\t-0.0\t0.1\n"
               "s2\t1e+16\t123456789.125\t-2.5e-300\n"),
    ], ids=["csv", "tsv"])
    def test_exact_bytes(self, tmp_path, delimiter, expected):
        path = tmp_path / "out.txt"
        write_expression(path, WRITE_MATRIX, delimiter)
        assert path.read_bytes() == expected.encode("utf-8")
        back = load_expression(path)
        assert back.values.tobytes() == WRITE_MATRIX.values.tobytes()


class TestLoadMetadata:
    def test_parse(self, tmp_path):
        path = write(
            tmp_path, "m.csv",
            "sample_id,domain,ic50,response\ns1,lung,0.5,\ns2,skin,,1\n",
        )
        metas = load_metadata(path)
        assert metas[0] == SampleMeta("s1", "lung", 0.5, None)
        assert metas[1] == SampleMeta("s2", "skin", None, 1)

    def test_both_empty_rejected(self, tmp_path):
        path = write(tmp_path, "m.csv", "sample_id,domain,ic50,response\ns1,lung,,\n")
        with pytest.raises(ParseError, match="line 2"):
            load_metadata(path)

    def test_bad_response(self, tmp_path):
        path = write(tmp_path, "m.csv", "sample_id,domain,ic50,response\ns1,lung,,2\n")
        with pytest.raises(ParseError, match="response"):
            load_metadata(path)

    def test_header_enforced(self, tmp_path):
        path = write(tmp_path, "m.csv", "sample_id,domain,resp\ns1,lung,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_metadata(path)

    def test_write_round_trip(self, tmp_path):
        metas = [SampleMeta("s1", "lung", 0.25, 1), SampleMeta("s2", "skin", None, 0)]
        path = tmp_path / "m.csv"
        write_metadata(path, metas)
        assert load_metadata(path) == metas


ENCODING_VARIANTS = [
    pytest.param(b"", b"\n", id="plain"),
    pytest.param(b"\xef\xbb\xbf", b"\n", id="bom"),
    pytest.param(b"", b"\r\n", id="crlf"),
    pytest.param(b"\xef\xbb\xbf", b"\r\n", id="bom-crlf"),
]


def reencode(path, prefix, newline):
    path.write_bytes(prefix + path.read_bytes().replace(b"\n", newline))


class TestEncodingVariants:
    """Spreadsheet exports add a UTF-8 byte-order mark and CRLF line ends."""

    @pytest.mark.parametrize("prefix,newline", ENCODING_VARIANTS)
    def test_expression(self, tmp_path, prefix, newline):
        gm = GeneMatrix(["a", "b"], ["g1", "g2"],
                        np.array([[0.1, -2.5], [1e-7, 3.0]]))
        path = tmp_path / "e.csv"
        write_expression(path, gm)
        reencode(path, prefix, newline)
        back = load_expression(path)
        assert back.sample_ids == gm.sample_ids
        assert back.gene_names == gm.gene_names
        assert np.array_equal(back.values, gm.values)

    @pytest.mark.parametrize("prefix,newline", ENCODING_VARIANTS)
    def test_metadata(self, tmp_path, prefix, newline):
        metas = [SampleMeta("s1", "lung", 0.25, 1), SampleMeta("s2", "skin", None, 0)]
        path = tmp_path / "m.csv"
        write_metadata(path, metas)
        reencode(path, prefix, newline)
        assert load_metadata(path) == metas


class TestMatchMetadata:
    def test_reorders_and_drops_extras(self):
        gm = GeneMatrix(["b", "a"], ["g"], np.zeros((2, 1)))
        metas = [
            SampleMeta("a", "x", response=0),
            SampleMeta("b", "y", response=1),
            SampleMeta("c", "z", response=0),
        ]
        ordered = match_metadata(gm, metas)
        assert [m.sample_id for m in ordered] == ["b", "a"]

    def test_missing_sample(self):
        gm = GeneMatrix(["a", "b"], ["g"], np.zeros((2, 1)))
        with pytest.raises(AlignmentError, match="b"):
            match_metadata(gm, [SampleMeta("a", "x", response=0)])


class TestSelectHvg:
    def fixture(self):
        # population variances: g1=0, g2=5, g3=1
        return GeneMatrix(
            ["s1", "s2", "s3", "s4"],
            ["g1", "g2", "g3"],
            np.array([[2.0, 0.0, 0.0], [2.0, 2.0, 2.0],
                      [2.0, 4.0, 0.0], [2.0, 6.0, 2.0]]),
        )

    def test_top2(self):
        out = select_hvg(self.fixture(), 2)
        assert out.gene_names == ["g2", "g3"]
        assert np.array_equal(out.values, self.fixture().values[:, 1:])

    def test_identity_when_k_is_gene_count(self):
        gm = self.fixture()
        out = select_hvg(gm, 3)
        assert out.gene_names == gm.gene_names
        assert np.array_equal(out.values, gm.values)

    def test_constant_gene_never_beats_varying(self):
        out = select_hvg(self.fixture(), 1)
        assert out.gene_names == ["g2"]

    def test_tie_breaks_by_name(self):
        gm = GeneMatrix(
            ["s1", "s2"], ["zz", "aa"], np.array([[0.0, 0.0], [2.0, 2.0]])
        )
        out = select_hvg(gm, 1)
        assert out.gene_names == ["aa"]

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            select_hvg(self.fixture(), 4)
        with pytest.raises(ParameterError):
            select_hvg(self.fixture(), 0)

    def test_idempotent(self):
        once = select_hvg(self.fixture(), 2)
        twice = select_hvg(once, 2)
        assert twice.gene_names == once.gene_names
        assert np.array_equal(twice.values, once.values)


class TestBinarizeIc50:
    def _metas(self, values):
        return [SampleMeta(f"s{i}", "d", ic50=v) for i, v in enumerate(values)]

    def test_mean_threshold(self):
        out = binarize_ic50(self._metas([1.0, 2.0, 3.0, 6.0]))
        assert [m.response for m in out] == [1, 1, 0, 0]

    def test_all_equal_all_resistant(self):
        out = binarize_ic50(self._metas([2.0, 2.0, 2.0]))
        assert [m.response for m in out] == [0, 0, 0]

    def test_single_sample_resistant(self):
        out = binarize_ic50(self._metas([5.0]))
        assert [m.response for m in out] == [0]

    def test_max_always_resistant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.normal(size=rng.integers(2, 12)).tolist()
            out = binarize_ic50(self._metas(vals))
            assert out[int(np.argmax(vals))].response == 0

    def test_empty_cohort(self):
        with pytest.raises(ParameterError):
            binarize_ic50([])

    def test_missing_ic50(self):
        metas = [SampleMeta("a", "d", ic50=1.0), SampleMeta("b", "d", response=1)]
        with pytest.raises(ParameterError, match="'b'"):
            binarize_ic50(metas)

    def test_pure_function(self):
        metas = self._metas([1.0, 3.0])
        binarize_ic50(metas)
        assert all(m.response is None for m in metas)


class TestZscore:
    def test_two_point_column(self):
        gm = GeneMatrix(["a", "b"], ["g"], np.array([[1.0], [3.0]]))
        out, stats = zscore_fit_apply(gm)
        assert np.array_equal(out.values, [[-1.0], [1.0]])
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0

    def test_self_application_standardizes(self):
        rng = np.random.default_rng(1)
        gm = GeneMatrix(
            [f"s{i}" for i in range(50)],
            [f"g{j}" for j in range(4)],
            rng.normal(3.0, 2.5, (50, 4)),
        )
        out, _ = zscore_fit_apply(gm)
        assert np.abs(out.values.mean(axis=0)).max() < 1e-12
        assert np.abs(out.values.std(axis=0) - 1.0).max() < 1e-12

    def test_constant_gene_floored(self):
        gm = GeneMatrix(["a", "b"], ["g"], np.array([[4.0], [4.0]]))
        out, stats = zscore_fit_apply(gm)
        assert np.array_equal(out.values, [[0.0], [0.0]])
        assert stats.std[0] == 1e-8

    def test_apply_existing_stats(self):
        gm = GeneMatrix(["a", "b"], ["g"], np.array([[1.0], [3.0]]))
        _, stats = zscore_fit_apply(gm)
        other = GeneMatrix(["c"], ["g"], np.array([[5.0]]))
        out, _ = zscore_fit_apply(other, stats)
        assert np.array_equal(out.values, [[3.0]])

    def test_gene_mismatch(self):
        gm = GeneMatrix(["a", "b"], ["g"], np.array([[1.0], [3.0]]))
        _, stats = zscore_fit_apply(gm)
        other = GeneMatrix(["c"], ["h"], np.array([[5.0]]))
        with pytest.raises(AlignmentError):
            zscore_fit_apply(other, stats)

    def test_round_trip_recovers_values(self):
        rng = np.random.default_rng(2)
        gm = GeneMatrix(
            [f"s{i}" for i in range(20)],
            [f"g{j}" for j in range(5)],
            rng.normal(0, 3, (20, 5)),
        )
        out, stats = zscore_fit_apply(gm)
        recovered = out.values * stats.std + stats.mean
        assert np.abs(recovered - gm.values).max() <= 1e-9


class TestAlignGenes:
    def _gm(self):
        return GeneMatrix(["s"], ["g1", "g2", "g3"], np.array([[1.0, 2.0, 3.0]]))

    def test_identity(self):
        out = align_genes(self._gm(), ["g1", "g2", "g3"])
        assert np.array_equal(out.values, [[1.0, 2.0, 3.0]])

    def test_reversal(self):
        out = align_genes(self._gm(), ["g3", "g2", "g1"])
        assert np.array_equal(out.values, [[3.0, 2.0, 1.0]])

    def test_missing_named(self):
        with pytest.raises(AlignmentError, match="gX"):
            align_genes(self._gm(), ["g1", "gX"])


class TestLodoSplit:
    def _metas(self, domains):
        return [SampleMeta(f"s{i}", d, response=0) for i, d in enumerate(domains)]

    def test_partition(self):
        train, test = lodo_split(self._metas(["A", "A", "B", "C"]), "B")
        assert test == [2]
        assert train == [0, 1, 3]

    def test_exhaustive_disjoint(self):
        metas = self._metas(["A", "B", "A", "C", "B"])
        for domain in ("A", "B", "C"):
            train, test = lodo_split(metas, domain)
            assert sorted(train + test) == list(range(5))
            assert set(train) & set(test) == set()

    def test_every_sample_tested_once(self):
        metas = self._metas(["A", "B", "A", "C", "B"])
        seen = []
        for domain in ("A", "B", "C"):
            seen.extend(lodo_split(metas, domain)[1])
        assert sorted(seen) == list(range(5))

    def test_hold_a(self):
        _, test = lodo_split(self._metas(["A", "A", "B", "C"]), "A")
        assert len(test) == 2

    def test_unknown_domain(self):
        with pytest.raises(ParameterError):
            lodo_split(self._metas(["A", "B"]), "Z")

    def test_single_domain_rejected(self):
        with pytest.raises(ParameterError):
            lodo_split(self._metas(["A", "A"]), "A")


class TestSubsetSamples:
    def test_subset(self):
        gm = GeneMatrix(["a", "b", "c"], ["g"], np.array([[1.0], [2.0], [3.0]]))
        out = subset_samples(gm, [2, 0])
        assert out.sample_ids == ["c", "a"]
        assert np.array_equal(out.values, [[3.0], [1.0]])
