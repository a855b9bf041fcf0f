"""Expression-matrix and response-metadata ingestion plus preprocessing.

File formats
------------
Expression (CSV or TSV, delimiter auto-detected from the header line, tab
preferred when present)::

    sample_id,geneA,geneB,...
    s1,0.5,1.2,...

Metadata::

    sample_id,domain,ic50,response

where per row at most one of ic50/response may be empty.  Responses are
binary: 1 = drug-sensitive, 0 = resistant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import AlignmentError, ParameterError, ParseError

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
        if self.response is not None and self.response not in (0, 1):
            raise ParameterError(
                f"sample {self.sample_id!r}: response must be 0 or 1"
            )


@dataclass
class NormStats:
    """Per-gene standardization statistics fit on a training split."""

    gene_names: list[str]
    mean: np.ndarray
    std: np.ndarray


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _read_lines(path) -> list[str]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports prepend
    text = Path(path).read_text(encoding="utf-8-sig")
    return [ln for ln in text.splitlines() if ln.strip() != ""]


def _parse_float(cell: str, lineno: int, context: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric value {cell!r} {context}")
    if not np.isfinite(value):
        raise ParseError(f"line {lineno}: non-finite value {cell!r} {context}")
    return value


def _expression_header(lines: list[str]) -> tuple[str, list[str]]:
    """Delimiter and gene names of an expression table's header line."""
    if not lines:
        raise ParseError("line 1: empty expression file")
    delim = _detect_delimiter(lines[0])
    header = [c.strip() for c in lines[0].split(delim)]
    if not header or header[0] != "sample_id":
        raise ParseError("line 1: first header field must be 'sample_id'")
    gene_names = header[1:]
    if "" in gene_names:
        raise ParseError(
            f"line 1: empty gene name in header field {gene_names.index('') + 2}"
        )
    if len(set(gene_names)) != len(gene_names):
        raise ParseError("line 1: duplicate gene names in header")
    return delim, gene_names


def _parse_rows_fast(
    rows: list[str], delim: str, n_genes: int
) -> Optional[tuple[list[str], np.ndarray]]:
    """Whole-table parse with no per-cell checks; None on any problem.

    ``float`` strips the same whitespace as ``str.strip``, so every value
    equals the one :func:`_parse_rows_checked` gives for the same cell.
    """
    sample_ids: list[str] = []
    values: list[float] = []
    try:
        for line in rows:
            sid, _, rest = line.partition(delim)
            cells = rest.split(delim)
            if len(cells) != n_genes:
                return None
            sample_ids.append(sid.strip())
            values.extend(map(float, cells))
    except ValueError:
        return None
    matrix = np.array(values, dtype=np.float64).reshape(len(rows), n_genes)
    if len(set(sample_ids)) != len(sample_ids) or not np.isfinite(matrix).all():
        return None
    return sample_ids, matrix


def _parse_rows_checked(
    rows: list[str], delim: str, gene_names: list[str]
) -> tuple[list[str], np.ndarray]:
    """Line-by-line parse; raises ParseError naming the first bad line."""
    n_fields = len(gene_names) + 1
    sample_ids: list[str] = []
    seen: set[str] = set()
    values: list[list[float]] = []
    for lineno, line in enumerate(rows, start=2):
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


def load_expression(path) -> GeneMatrix:
    """Parse an expression table; raises ParseError with a line number.

    The whole table is parsed in one pass first; only when that finds a
    problem does the line-by-line parser run, to name the line.
    """
    lines = _read_lines(path)
    delim, gene_names = _expression_header(lines)
    parsed = _parse_rows_fast(lines[1:], delim, len(gene_names))
    if parsed is None:
        parsed = _parse_rows_checked(lines[1:], delim, gene_names)
    sample_ids, values = parsed
    return GeneMatrix(sample_ids, gene_names, values)


def write_expression(path, gm: GeneMatrix, delimiter: str = ","):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(["sample_id"] + gm.gene_names) + "\n")
        for sid, row in zip(gm.sample_ids, gm.values):
            fh.write(delimiter.join([sid, *map(repr, row.tolist())]) + "\n")


META_HEADER = ["sample_id", "domain", "ic50", "response"]


def load_metadata(path) -> list[SampleMeta]:
    """Parse the sample_id,domain,ic50,response table."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError("line 1: empty metadata file")
    delim = _detect_delimiter(lines[0])
    header = [c.strip() for c in lines[0].split(delim)]
    if header != META_HEADER:
        raise ParseError(
            f"line 1: metadata header must be {','.join(META_HEADER)}"
        )
    metas: list[SampleMeta] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(delim)]
        if len(cells) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(cells)}")
        sid, domain, ic50_cell, resp_cell = cells
        if sid in seen:
            raise ParseError(f"line {lineno}: duplicate sample_id {sid!r}")
        seen.add(sid)
        if domain == "":
            raise ParseError(f"line {lineno}: empty domain for {sid!r}")
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


def write_metadata(path, metas: Sequence[SampleMeta], delimiter: str = ","):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(delimiter.join(META_HEADER) + "\n")
        for m in metas:
            ic50 = "" if m.ic50 is None else repr(float(m.ic50))
            resp = "" if m.response is None else str(m.response)
            fh.write(delimiter.join([m.sample_id, m.domain, ic50, resp]) + "\n")


def match_metadata(gm: GeneMatrix, metas: Sequence[SampleMeta]) -> list[SampleMeta]:
    """Order metadata rows to match gm.sample_ids; extras are dropped."""
    by_id = {m.sample_id: m for m in metas}
    missing = [sid for sid in gm.sample_ids if sid not in by_id]
    if missing:
        shown = ", ".join(missing[:10])
        raise AlignmentError(f"metadata missing for {len(missing)} samples: {shown}")
    return [by_id[sid] for sid in gm.sample_ids]


def select_hvg(gm: GeneMatrix, k: int) -> GeneMatrix:
    """Keep the k genes with largest population variance.

    Ties break toward the lexicographically smaller gene name; the kept
    genes stay in their original column order.
    """
    g = len(gm.gene_names)
    if k < 1 or k > g:
        raise ParameterError(f"k must be in [1, {g}], got {k}")
    variances = gm.values.var(axis=0)
    ranked = sorted(range(g), key=lambda j: (-variances[j], gm.gene_names[j]))
    keep = set(ranked[:k])
    cols = [j for j in range(g) if j in keep]
    return GeneMatrix(
        list(gm.sample_ids),
        [gm.gene_names[j] for j in cols],
        gm.values[:, cols].copy(),
    )


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
        raise AlignmentError("normalization stats were fit on different genes")
    out = GeneMatrix(
        list(gm.sample_ids),
        list(gm.gene_names),
        (gm.values - stats.mean) / stats.std,
    )
    return out, stats


def align_genes(gm: GeneMatrix, gene_list: Sequence[str]) -> GeneMatrix:
    """Reorder/subset columns to gene_list exactly."""
    index = {g: j for j, g in enumerate(gm.gene_names)}
    missing = [g for g in gene_list if g not in index]
    if missing:
        shown = ", ".join(missing[:10])
        raise AlignmentError(f"{len(missing)} genes missing from matrix: {shown}")
    cols = [index[g] for g in gene_list]
    return GeneMatrix(
        list(gm.sample_ids), list(gene_list), gm.values[:, cols].copy()
    )


def subset_samples(gm: GeneMatrix, indices: Sequence[int]) -> GeneMatrix:
    idx = list(indices)
    return GeneMatrix(
        [gm.sample_ids[i] for i in idx],
        list(gm.gene_names),
        gm.values[idx, :].copy(),
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
