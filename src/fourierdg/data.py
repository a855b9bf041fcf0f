"""Expression-matrix and response-metadata ingestion plus preprocessing.

File formats
------------
Expression (CSV or TSV, delimiter auto-detected from the header line, tab
preferred when present; the writers emit CSV)::

    sample_id,geneA,geneB,...
    s1,0.5,1.2,...

Metadata::

    sample_id,domain,ic50,response

where per row at most one of ic50/response may be empty.  Responses are
binary: 1 = drug-sensitive, 0 = resistant.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ParameterError, ParseError, naming_path

STD_FLOOR = 1e-8


@dataclass
class GeneMatrix:
    """Dense samples x genes expression matrix."""

    sample_ids: list[str]
    gene_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.sample_ids), len(self.gene_names)):
            raise ParameterError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.gene_names)} genes"
            )
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ParameterError("sample ids must be unique")
        if len(set(self.gene_names)) != len(self.gene_names):
            raise ParameterError("gene names must be unique")
        if "" in self.gene_names:
            raise ParameterError("gene names must not be empty")
        if self.values.size and not np.isfinite(self.values).all():
            raise ParameterError("expression values must be finite")


@dataclass
class SampleMeta:
    """Per-sample domain (cancer type), optional raw IC50, optional label."""

    sample_id: str
    domain: str
    ic50: Optional[float] = None
    response: Optional[int] = None

    def __post_init__(self):
        if self.ic50 is None and self.response is None:
            raise ParameterError(
                f"sample {self.sample_id!r} needs ic50 or response"
            )
        # only values that write_metadata writes back as load_metadata reads
        # them: no empty domain, no bool (written True), no float response (1.0)
        if self.domain == "":
            raise ParameterError(f"sample {self.sample_id!r}: domain must not be empty")
        if self.response is not None and not (
            isinstance(self.response, (int, np.integer))
            and not isinstance(self.response, bool) and self.response in (0, 1)
        ):
            raise ParameterError(
                f"sample {self.sample_id!r}: response must be 0 or 1, "
                f"got {self.response!r}"
            )
        if isinstance(self.ic50, (bool, np.bool_)):
            raise ParameterError(
                f"sample {self.sample_id!r}: ic50 must be a number, got {self.ic50!r}"
            )
        if self.ic50 is not None and not math.isfinite(self.ic50):
            raise ParameterError(f"sample {self.sample_id!r}: ic50 must be finite")


@dataclass
class NormStats:
    """Per-gene standardization statistics fit on a training split."""

    gene_names: list[str]
    mean: np.ndarray
    std: np.ndarray


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


# The line breaks of str.splitlines besides \n and \r.  Reading a file by
# lines (universal newlines) ends a line at \n, \r and \r\n only.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _lines(path) -> Iterator[tuple[int, str]]:
    """The non-blank lines of a text file with their 1-based line numbers,
    split and numbered as ``str.splitlines`` would, read one at a time."""
    lineno = 0
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
        with open(path, encoding="utf-8-sig") as fh:
            for line in fh:
                if any(c in line for c in _OTHER_LINE_BREAKS):
                    parts = line.splitlines()
                else:
                    parts = (line.rstrip("\n"),)
                for part in parts:
                    lineno += 1
                    if part.strip():
                        yield lineno, part
    except UnicodeDecodeError as e:
        # decoding reads ahead, so the lines read so far do not place the byte
        raise ParseError(
            f"not UTF-8 text: cannot decode byte 0x{e.object[e.start]:02x}"
        ) from None


def _parse_float(cell: str, lineno: int, context: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric value {cell!r} {context}")
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value {cell!r} {context}")
    return value


def _expression_header(lineno: int, line: str) -> tuple[str, list[str]]:
    """Delimiter and gene names of an expression table's header line."""
    delim = _detect_delimiter(line)
    header = [c.strip() for c in line.split(delim)]
    if header[0] != "sample_id":
        raise ParseError(
            f"line {lineno}: first header field must be 'sample_id', got {header[0]!r}"
        )
    gene_names = header[1:]
    if "" in gene_names:
        raise ParseError(
            f"line {lineno}: empty gene name in header field "
            f"{gene_names.index('') + 2}"
        )
    if len(set(gene_names)) != len(gene_names):
        raise ParseError(f"line {lineno}: duplicate gene names in header")
    for gene in gene_names:
        _check_read_name("gene name", gene, lineno)
    return delim, gene_names


@naming_path
def load_expression(path) -> GeneMatrix:
    """Parse an expression table; raises ParseError naming the file and its
    first bad line.

    Rows go from the open file straight into one growing float64 buffer, so
    neither the file text nor a Python float per cell is ever held.  Each
    row is read whole with ``float``; only a row that read rejects, or that
    holds a non-finite value, is checked cell by cell to name the problem.
    """
    lines = _lines(path)
    first = next(lines, None)
    if first is None:
        raise ParseError("line 1: empty expression file")
    delim, gene_names = _expression_header(*first)
    sample_ids: list[str] = []
    seen: set[str] = set()
    values = array("d")
    for lineno, line in lines:
        sid, sep, rest = line.partition(delim)
        cells = rest.split(delim) if sep else []
        if len(cells) != len(gene_names):
            raise ParseError(
                f"line {lineno}: expected {len(gene_names) + 1} fields, "
                f"got {len(cells) + 1}"
            )
        sid = sid.strip()
        _check_read_name("sample id", sid, lineno)
        if sid in seen:
            raise ParseError(f"line {lineno}: duplicate sample_id {sid!r}")
        seen.add(sid)
        sample_ids.append(sid)
        start = len(values)
        try:
            values.extend(map(float, cells))
            finite = np.isfinite(np.frombuffer(values, offset=8 * start)).all()
        except ValueError:
            finite = False
        if not finite:
            for cell, gene in zip(cells, gene_names):
                _parse_float(cell, lineno, f"for gene {gene!r}")
    shape = (len(sample_ids), len(gene_names))
    return GeneMatrix(sample_ids, gene_names, np.frombuffer(values).reshape(shape))


def check_names(kind: str, names):
    """Raise ParameterError for a name that would not read back unchanged
    from a CSV table: one holding a comma, a line break or a tab (a tab in
    the header would make it read as TSV), or padded with whitespace."""
    breaks = "\r\n" + _OTHER_LINE_BREAKS
    for name in names:
        if "," in name:
            problem = "contains the delimiter ','"
        elif any(c in name for c in breaks):
            problem = "contains a line break"
        elif name != name.strip():
            problem = "has leading or trailing whitespace"
        elif "\t" in name:
            problem = "contains the delimiter '\\t'"
        else:
            continue
        raise ParameterError(f"{kind} {name!r} {problem}; it would not read back")


def _check_read_name(kind: str, name: str, lineno: int):
    """The readers refuse, naming the line, what the writers refuse."""
    try:
        check_names(kind, (name,))
    except ParameterError as e:
        raise ParseError(f"line {lineno}: {e}") from None


def write_expression(path, gm: GeneMatrix):
    check_names("sample id", gm.sample_ids)
    check_names("gene name", gm.gene_names)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["sample_id"] + gm.gene_names) + "\n")
        for sid, row in zip(gm.sample_ids, gm.values):
            fh.write(",".join([sid, *map(repr, row.tolist())]) + "\n")


META_HEADER = ["sample_id", "domain", "ic50", "response"]


@naming_path
def load_metadata(path) -> list[SampleMeta]:
    """Parse the sample_id,domain,ic50,response table."""
    lines = _lines(path)
    first = next(lines, None)
    if first is None:
        raise ParseError("line 1: empty metadata file")
    header_lineno, header_line = first
    delim = _detect_delimiter(header_line)
    header = [c.strip() for c in header_line.split(delim)]
    if header != META_HEADER:
        raise ParseError(
            f"line {header_lineno}: metadata header must be {','.join(META_HEADER)}, "
            f"got {','.join(header)!r}"
        )
    metas: list[SampleMeta] = []
    seen: set[str] = set()
    for lineno, line in lines:
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(cells)}")
        sid, domain, ic50_cell, resp_cell = cells
        _check_read_name("sample id", sid, lineno)
        if sid in seen:
            raise ParseError(f"line {lineno}: duplicate sample_id {sid!r}")
        seen.add(sid)
        if domain == "":
            raise ParseError(f"line {lineno}: empty domain for {sid!r}")
        _check_read_name("domain", domain, lineno)
        ic50 = None if ic50_cell == "" else _parse_float(ic50_cell, lineno, "for ic50")
        response: Optional[int] = None
        if resp_cell != "":
            if resp_cell not in ("0", "1"):
                raise ParseError(
                    f"line {lineno}: response must be 0 or 1, got {resp_cell!r}"
                )
            response = int(resp_cell)
        if ic50 is None and response is None:
            raise ParseError(f"line {lineno}: both ic50 and response empty")
        metas.append(SampleMeta(sid, domain, ic50, response))
    return metas


def write_metadata(path, metas: Sequence[SampleMeta]):
    rows = ([m.sample_id, m.domain, m.ic50, m.response] for m in metas)
    write_table(path, META_HEADER, rows)


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_table(path, header: Sequence[str], rows):
    """Write a CSV table, one row per item of ``rows``.

    A float cell (numpy floats included) is written with ``repr``, so it
    reads back as the same double; ``None`` is an empty cell; any other
    value is written with ``str``.  Every ``str`` cell is checked by
    :func:`check_names`, named by its column (``sample_id`` as "sample id"),
    before the file is opened.
    """
    rows = list(rows)
    for name, column in zip(header, zip(*rows)):
        check_names(name.replace("_", " "), [c for c in column if isinstance(c, str)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def match_metadata(gm: GeneMatrix, metas: Sequence[SampleMeta]) -> list[SampleMeta]:
    """Order metadata rows to match gm.sample_ids; extras are dropped."""
    by_id = {m.sample_id: m for m in metas}
    missing = [sid for sid in gm.sample_ids if sid not in by_id]
    if missing:
        shown = ", ".join(missing[:10])
        raise ParameterError(f"metadata missing for {len(missing)} samples: {shown}")
    return [by_id[sid] for sid in gm.sample_ids]


def select_hvg(gm: GeneMatrix, k: int) -> GeneMatrix:
    """Keep the k genes with largest population variance.

    Ties break toward the lexicographically smaller gene name; the kept
    genes stay in their original column order.
    """
    g = len(gm.gene_names)
    if k < 1 or k > g:
        raise ParameterError(f"k must be in [1, {g}], got {k}")
    variances = _column_var(gm.values)
    # object dtype compares names as str does; a unicode array would drop
    # trailing NULs and tie 'a\x00' with 'a'
    names = np.array(gm.gene_names, dtype=object)
    keep = np.sort(np.lexsort((names, -variances))[:k])
    return align_genes(gm, [gm.gene_names[j] for j in keep])


def _column_var(values: np.ndarray) -> np.ndarray:
    """``values.var(axis=0)``, bit for bit, 64 columns at a time, so that the
    centred copy is never matrix-sized.  A one-column tail joins the block
    before it: numpy sums a lone column pairwise, and only then would the
    bits differ."""
    g = values.shape[1]
    edges = list(range(0, g, 64))
    if len(edges) > 1 and g - edges[-1] == 1:
        edges.pop()
    edges.append(g)
    return np.concatenate([values[:, a:b].var(axis=0) for a, b in zip(edges, edges[1:])])


def binarize_ic50(metas: Sequence[SampleMeta]) -> list[SampleMeta]:
    """Label by the cohort-mean IC50 threshold: below the mean is sensitive
    (1), at or above it resistant (0)."""
    if not metas:
        raise ParameterError("cannot binarize an empty cohort")
    missing = [m.sample_id for m in metas if m.ic50 is None]
    if missing:
        raise ParameterError(
            f"ic50 missing for {len(missing)} samples, e.g. {missing[0]!r}"
        )
    mean = float(np.mean([m.ic50 for m in metas]))
    return [replace(m, response=1 if m.ic50 < mean else 0) for m in metas]


def zscore_fit_apply(
    gm: GeneMatrix, stats: Optional[NormStats] = None
) -> tuple[GeneMatrix, NormStats]:
    """Standardize per gene; fit stats on gm unless given."""
    if stats is None:
        mean = gm.values.mean(axis=0)
        std = np.maximum(gm.values.std(axis=0), STD_FLOOR)
        stats = NormStats(list(gm.gene_names), mean, std)
    elif stats.gene_names != gm.gene_names:
        raise ParameterError("normalization stats were fit on different genes")
    values = np.subtract(gm.values, stats.mean)
    values /= stats.std
    return GeneMatrix(list(gm.sample_ids), list(gm.gene_names), values), stats


def align_genes(gm: GeneMatrix, gene_list: Sequence[str]) -> GeneMatrix:
    """Reorder/subset columns to gene_list exactly."""
    index = {g: j for j, g in enumerate(gm.gene_names)}
    missing = [g for g in gene_list if g not in index]
    if missing:
        shown = ", ".join(missing[:10])
        raise ParameterError(f"{len(missing)} genes missing from matrix: {shown}")
    cols = [index[g] for g in gene_list]
    return GeneMatrix(
        list(gm.sample_ids), list(gene_list), np.take(gm.values, cols, axis=1)
    )


def subset_samples(gm: GeneMatrix, indices: Sequence[int]) -> GeneMatrix:
    idx = list(indices)
    return GeneMatrix(
        [gm.sample_ids[i] for i in idx],
        list(gm.gene_names),
        gm.values[idx, :],
    )


def lodo_split(
    metas: Sequence[SampleMeta], held_out_domain: str
) -> tuple[list[int], list[int]]:
    """Partition indices into (train, test) by holding out one domain."""
    domains = {m.domain for m in metas}
    if held_out_domain not in domains:
        raise ParameterError(f"unknown domain {held_out_domain!r}")
    if len(domains) < 2:
        raise ParameterError("need at least 2 domains to hold one out")
    test = [i for i, m in enumerate(metas) if m.domain == held_out_domain]
    train = [i for i, m in enumerate(metas) if m.domain != held_out_domain]
    return train, test
