"""Parsing, preprocessing, and split behavior of the data layer."""

from pathlib import Path

import numpy as np
import pytest

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


# (id, file text, expected outcome: None to parse, else the ParseError text)
PARSER_CASES = [
    ("plain", "sample_id,g1,g2\ns1,1,2\ns2,3.5,-4e-3\n", None),
    ("tsv", "sample_id\tg1\tg2\ns1\t1\t2\ns2\t3\t4\n", None),
    ("tsv-comma-cell", "sample_id\tg1\ns1\t1,5\n",
     "line 2: non-numeric value '1,5' for gene 'g1'"),
    ("padded-cells", "sample_id , g1 ,g2\n  s1 ,  1.5 , 2 \n s2,3 , 4\n", None),
    ("underscore-digits", "sample_id,g1\ns1,1_0\n", None),
    ("header-only", "sample_id,g1,g2\n", None),
    ("no-genes", "sample_id\ns1\ns2\n", None),
    ("trailing-delimiter", "sample_id,g1,g2,\ns1,1,2,\n",
     "line 1: empty gene name in header field 4"),
    ("trailing-delimiter-rows", "sample_id,g1,g2\ns1,1,2,\n",
     "line 2: expected 3 fields, got 4"),
    ("quoted-header", '"sample_id","g1"\ns1,1\n',
     "line 1: first header field must be 'sample_id'"),
    ("quoted-cell", 'sample_id,g1\ns1,"1"\n',
     "line 2: non-numeric value '\"1\"' for gene 'g1'"),
    ("nan", "sample_id,g1,g2\ns1,1,2\ns2,nan,2\n",
     "line 3: non-finite value 'nan' for gene 'g1'"),
    ("inf", "sample_id,g1,g2\ns1,1,-inf\n",
     "line 2: non-finite value '-inf' for gene 'g2'"),
    ("overflow", "sample_id,g1\ns1,1e400\n",
     "line 2: non-finite value '1e400' for gene 'g1'"),
    ("ragged", "sample_id,g1,g2\ns1,1,2\ns2,1\n",
     "line 3: expected 3 fields, got 2"),
    ("first-error-wins", "sample_id,g1,g2\ns1,x,2\ns2,1\n",
     "line 2: non-numeric value 'x' for gene 'g1'"),
    ("duplicate-sample", "sample_id,g1\ns1,1\ns2,2\n s1 ,3\n",
     "line 4: duplicate sample_id 's1'"),
    ("duplicate-gene", "sample_id,g1,g1\ns1,1,2\n",
     "line 1: duplicate gene names in header"),
    ("empty", "", "line 1: empty expression file"),
    ("blank-only", "\n  \n", "line 1: empty expression file"),
    ("blank-lines-skipped", "sample_id,g1\n\ns1,1\n  \ns2,2\n", None),
    ("blank-line-before-bad-row", "sample_id,g1\n\ns1,abc\n",
     "line 3: non-numeric value 'abc' for gene 'g1'"),
    ("blank-lines-before-ragged-row", "sample_id,g1,g2\ns1,1,2\n\n\ns2,1\n",
     "line 5: expected 3 fields, got 2"),
    ("blank-line-before-bad-header", "\nsample_id,g1,g1\ns1,1,2\n",
     "line 2: duplicate gene names in header"),
    ("cr-line-ends", "sample_id,g1,g2\rs1,1,2\rs2,3,4\r", None),
    ("cr-line-ends-bad-row", "sample_id,g1\rs1,1\r\rs2,x\r",
     "line 4: non-numeric value 'x' for gene 'g1'"),
    # str.splitlines also breaks lines at these; file iteration does not
    ("form-feed-in-row", "sample_id,g1,g2\ns1,1\x0c,2\n",
     "line 2: expected 3 fields, got 2"),
    ("file-separator-in-row", "sample_id,g1\ns1,1\x1cs2,2\n", None),
    ("next-line-in-row", "sample_id,g1,g2\ns1,1,2\x85\ns2,3,4\n", None),
    ("line-separator-in-row", "sample_id,g1,g2\ns1,1,\u20282\ns2,3,4\n",
     "line 2: non-numeric value '' for gene 'g2'"),
    ("line-separator-in-header", "sample_id,g1\u2028g2\ns1,1\n",
     "line 2: expected 2 fields, got 1"),
    ("header-only-no-final-newline", "sample_id,g1,g2", None),
    ("no-final-newline", "sample_id,g1,g2\ns1,1,2\ns2,3,4", None),
    ("no-final-newline-bad-row", "sample_id,g1,g2\ns1,1,2\ns2,3",
     "line 3: expected 3 fields, got 2"),
    # the first error in file order wins, and within a row the first cell
    ("non-finite-before-ragged", "sample_id,g1,g2\ns1,nan,2\ns2,1\n",
     "line 2: non-finite value 'nan' for gene 'g1'"),
    ("duplicate-before-bad-cell", "sample_id,g1\ns1,1\ns1,x\n",
     "line 3: duplicate sample_id 's1'"),
    ("non-finite-before-non-numeric", "sample_id,g1,g2\ns1,inf,x\n",
     "line 2: non-finite value 'inf' for gene 'g1'"),
    ("non-numeric-before-non-finite", "sample_id,g1,g2\ns1,x,inf\n",
     "line 2: non-numeric value 'x' for gene 'g1'"),
    ("large-finite-values", "sample_id,g1,g2\ns1,1e308,1e308\ns2,-1.7e308,1.7e308\n",
     None),
]

# (id, metadata file text, expected ParseError text)
METADATA_CASES = [
    ("blank-line-before-bad-row",
     "sample_id,domain,ic50,response\n\ns1,lung,,2\n",
     "line 3: response must be 0 or 1, got '2'"),
    ("blank-lines-before-duplicate",
     "sample_id,domain,ic50,response\ns1,lung,0.5,\n \n\ns1,skin,,1\n",
     "line 5: duplicate sample_id 's1'"),
    ("blank-line-before-bad-header", "\nsample_id,domain,resp\ns1,lung,1\n",
     "line 2: metadata header must be sample_id,domain,ic50,response"),
    ("cr-line-ends",
     "sample_id,domain,ic50,response\rs1,lung,0.5,\r\rs2,skin,,2\r",
     "line 4: response must be 0 or 1, got '2'"),
    ("form-feed-in-row", "sample_id,domain,ic50,response\ns1,lung,0.5\x0c,1\n",
     "line 2: expected 4 fields, got 3"),
    ("line-separator-in-row",
     "sample_id,domain,ic50,response\ns1,lung,0.5,\u2028s1,skin,,1\n",
     "line 3: duplicate sample_id 's1'"),
]


def parse_outcome(parse, path):
    try:
        gm = parse(path)
    except ParseError as e:
        return str(e)
    return gm.sample_ids, gm.gene_names, gm.values.shape, gm.values.tobytes()


# The oracle load_expression must agree with: it reads the whole text,
# splits it with str.splitlines and checks every cell on its own.

def _read_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines with their 1-based line numbers in the file."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    text = Path(path).read_text(encoding="utf-8-sig")
    return [
        (lineno, ln)
        for lineno, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() != ""
    ]


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _parse_float(cell: str, lineno: int, context: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric value {cell!r} {context}")
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value {cell!r} {context}")
    return value


def _expression_header(lines: list[tuple[int, str]]) -> tuple[str, list[str]]:
    """Delimiter and gene names of an expression table's header line."""
    if not lines:
        raise ParseError("line 1: empty expression file")
    lineno, line = lines[0]
    delim = _detect_delimiter(line)
    header = [c.strip() for c in line.split(delim)]
    if not header or header[0] != "sample_id":
        raise ParseError(f"line {lineno}: first header field must be 'sample_id'")
    gene_names = header[1:]
    if "" in gene_names:
        raise ParseError(
            f"line {lineno}: empty gene name in header field "
            f"{gene_names.index('') + 2}"
        )
    if len(set(gene_names)) != len(gene_names):
        raise ParseError(f"line {lineno}: duplicate gene names in header")
    return delim, gene_names


def _parse_rows_checked(
    rows: list[tuple[int, str]], delim: str, gene_names: list[str]
) -> tuple[list[str], np.ndarray]:
    """Line-by-line parse; raises ParseError naming the first bad line."""
    n_fields = len(gene_names) + 1
    sample_ids: list[str] = []
    seen: set[str] = set()
    values: list[list[float]] = []
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != n_fields:
            raise ParseError(
                f"line {lineno}: expected {n_fields} fields, got {len(cells)}"
            )
        sid = cells[0]
        if sid in seen:
            raise ParseError(f"line {lineno}: duplicate sample_id {sid!r}")
        seen.add(sid)
        sample_ids.append(sid)
        values.append(
            [_parse_float(c, lineno, f"for gene {g!r}")
             for c, g in zip(cells[1:], gene_names)]
        )
    matrix = np.asarray(values, dtype=np.float64).reshape(len(sample_ids), len(gene_names))
    return sample_ids, matrix


def parse_checked(path):
    """The oracle: the whole-text, cell-by-cell parse."""
    lines = _read_lines(path)
    delim, gene_names = _expression_header(lines)
    sample_ids, values = _parse_rows_checked(lines[1:], delim, gene_names)
    return GeneMatrix(sample_ids, gene_names, values)


class TestParserCases:
    """load_expression must agree exactly with the line-by-line parser."""

    @pytest.mark.parametrize(
        "text,expected", [c[1:] for c in PARSER_CASES],
        ids=[c[0] for c in PARSER_CASES],
    )
    def test_same_result_as_checked_parser(self, tmp_path, text, expected):
        path = write(tmp_path, "e.csv", text)
        got = parse_outcome(load_expression, path)
        assert got == parse_outcome(parse_checked, path)
        if expected is None:
            assert not isinstance(got, str), got
        else:
            assert got == expected

    @pytest.mark.parametrize(
        "text,expected", [c[1:] for c in METADATA_CASES],
        ids=[c[0] for c in METADATA_CASES],
    )
    def test_metadata_line_numbers(self, tmp_path, text, expected):
        with pytest.raises(ParseError) as err:
            load_metadata(write(tmp_path, "m.csv", text))
        assert str(err.value) == expected

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


# (id, name, delimiter, expected ParameterError text after the name)
UNREADABLE_NAMES = [
    ("comma", "a,b", ",", "contains the delimiter ','"),
    ("tab", "a\tb", "\t", "contains the delimiter '\\t'"),
    ("newline", "a\nb", ",", "contains a line break"),
    ("carriage-return", "a\rb", ",", "contains a line break"),
    ("trailing-newline", "a\n", ",", "contains a line break"),
    ("next-line", "a\x85b", ",", "contains a line break"),
    ("leading-space", " a", ",", "has leading or trailing whitespace"),
    ("trailing-tab", "a\t", ",", "has leading or trailing whitespace"),
]


class TestWriterNames:
    """Writers refuse a name that load_expression/load_metadata would reject
    or read back changed, before they open the file."""

    @pytest.mark.parametrize(
        "name,delimiter,problem", [c[1:] for c in UNREADABLE_NAMES],
        ids=[c[0] for c in UNREADABLE_NAMES],
    )
    @pytest.mark.parametrize("field", ["sample id", "gene name"])
    def test_write_expression(self, tmp_path, field, name, delimiter, problem):
        ids, genes = ["s1", "s2"], ["g1", "g2"]
        (ids if field == "sample id" else genes)[1] = name
        gm = GeneMatrix(ids, genes, np.ones((2, 2)))
        path = tmp_path / "e.csv"
        with pytest.raises(ParameterError) as err:
            write_expression(path, gm, delimiter)
        assert str(err.value) == f"{field} {name!r} {problem}; it would not read back"
        assert not path.exists()

    @pytest.mark.parametrize(
        "name,delimiter,problem", [c[1:] for c in UNREADABLE_NAMES],
        ids=[c[0] for c in UNREADABLE_NAMES],
    )
    @pytest.mark.parametrize("field", ["sample id", "domain"])
    def test_write_metadata(self, tmp_path, field, name, delimiter, problem):
        metas = [SampleMeta("s1", "lung", 0.5),
                 SampleMeta(name, "skin", 1.5) if field == "sample id"
                 else SampleMeta("s2", name, 1.5)]
        path = tmp_path / "m.csv"
        with pytest.raises(ParameterError) as err:
            write_metadata(path, metas, delimiter)
        assert str(err.value) == f"{field} {name!r} {problem}; it would not read back"
        assert not path.exists()

    def test_other_delimiter_allowed(self, tmp_path):
        gm = GeneMatrix(["a,b", "c d"], ["g,1"], np.array([[1.0], [2.0]]))
        path = tmp_path / "e.tsv"
        write_expression(path, gm, "\t")
        back = load_expression(path)
        assert back.sample_ids == gm.sample_ids and back.gene_names == gm.gene_names


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


def latin1_table(path, header, row, bad_line, n_lines):
    """``n_lines`` lines of ``header`` then ``row`` filled with ``s{i}``,
    where line ``bad_line`` holds a Latin-1 e-acute, not valid UTF-8."""
    lines = [header] + [row.format(f"s{i}") for i in range(2, n_lines + 1)]
    lines[bad_line - 1] = lines[bad_line - 1].replace("s", "caf\xe9", 1)
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    return path


class TestNonUtf8:
    """Decoding reads ahead of the lines handed out, so a bad byte is
    reported without a line number rather than with a wrong one."""

    @pytest.mark.parametrize("bad_line", [1, 3, 5002])
    def test_expression(self, tmp_path, bad_line):
        path = latin1_table(tmp_path / "e.csv", "sample_id,g1", "{},1.5",
                            bad_line, 6000)
        with pytest.raises(ParseError) as err:
            load_expression(path)
        assert str(err.value) == f"{path}: not UTF-8 text: cannot decode byte 0xe9"

    @pytest.mark.parametrize("bad_line", [1, 3, 5002])
    def test_metadata(self, tmp_path, bad_line):
        path = latin1_table(tmp_path / "m.csv", "sample_id,domain,ic50,response",
                            "{},lung,0.5,", bad_line, 6000)
        with pytest.raises(ParseError) as err:
            load_metadata(path)
        assert str(err.value) == f"{path}: not UTF-8 text: cannot decode byte 0xe9"


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

    @pytest.mark.parametrize("ic50", [np.nan, np.inf, -np.inf])
    def test_non_finite_ic50_rejected_before_binarizing(self, ic50):
        # a NaN cohort mean would label every sample resistant
        with pytest.raises(ParameterError, match="sample 'a': ic50 must be finite"):
            SampleMeta("a", "A", ic50)


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
