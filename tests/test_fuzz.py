"""Seeded mutation fuzz of the three readers: expression tables, metadata
tables and checkpoints.

Each case mutates one small file the writers wrote: a byte edit, a
truncation, a duplicated line, or a token spliced in.  A reader that
refuses the result must raise a FourierDGError.  A table it accepts must
write back and read back equal, and an accepted checkpoint must save ->
load -> save to the same bytes.
"""

import numpy as np
import pytest

from fourierdg.data import (
    GeneMatrix,
    NormStats,
    SampleMeta,
    load_expression,
    load_metadata,
    write_expression,
    write_metadata,
)
from fourierdg.errors import FourierDGError
from fourierdg.model import Checkpoint, GrlConfig, init_params, load_checkpoint, save_checkpoint
from fourierdg.tensor_core import RngState

MUTATIONS = 2000  # per reader; the three together run in about 2 s

TOKENS = [
    b"nan", b"-inf", b"1e400", b"1e-400", b"-0", b"1_0", b"0x1", b"", b" ", b",",
    b"\t", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"\x1f", b"\x0c",
    "\ufeff".encode(), "\xa0".encode(), "\u2028".encode(), "\x85".encode(),
    b"\xff", b"{", b"}", b"[", b"]", b"-1", b"99999", b"1e9", b'"d"',
]


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One random edit of ``data``."""
    kind = rng.integers(4)
    at = int(rng.integers(len(data) + 1))
    if kind == 0 and data:  # overwrite one byte
        at = min(at, len(data) - 1)
        return data[:at] + bytes([rng.integers(256)]) + data[at + 1:]
    if kind == 1:  # truncate
        return data[:at]
    if kind == 2:  # duplicate a line
        lines = data.splitlines(keepends=True)
        i = int(rng.integers(len(lines)))
        return b"".join(lines[: i + 1] + lines[i:])
    # splice a token over 0 to 3 bytes
    token = TOKENS[rng.integers(len(TOKENS))]
    return data[:at] + token + data[at + int(rng.integers(4)):]


def expression_file(path):
    gm = GeneMatrix(["s1", "s2", "s3"], ["g1", "g2", "g3"],
                    np.array([[0.5, -1.25, 3e-7], [2.0, 0.0, -0.0], [1e300, 7.0, -3.5]]))
    write_expression(path, gm)


def metadata_file(path):
    write_metadata(path, [
        SampleMeta("s1", "lung", 0.5, None), SampleMeta("s2", "skin", None, 1),
        SampleMeta("s3", "lung", -2.0, 0),
    ])


def checkpoint_file(path):
    params = init_params(["g1", "g2", "g3"], 2, RngState(0), hidden=4, d=2, disc_hidden=2)
    stats = NormStats(params.gene_list, np.zeros(3), np.ones(3))
    save_checkpoint(path, Checkpoint(params, stats, GrlConfig(1.0), {}, ["A", "B"]))


def gm_key(gm):
    return gm.sample_ids, gm.gene_names, gm.values.shape, gm.values.tobytes()


# (seed, writes the original, reader, writer, what must read back equal)
READERS = {
    "expression": (1, expression_file, load_expression, write_expression, gm_key),
    "metadata": (2, metadata_file, load_metadata, write_metadata, lambda metas: metas),
    "checkpoint": (3, checkpoint_file, load_checkpoint, save_checkpoint,
                   lambda ckpt: ckpt.params.values.tobytes()),
}


@pytest.mark.parametrize("kind", READERS)
def test_mutated_files(tmp_path, kind):
    seed, make, read, write, key = READERS[kind]
    original, path = tmp_path / "original", tmp_path / "mutated"
    first, second = tmp_path / "first", tmp_path / "second"
    make(original)
    source = original.read_bytes()
    rng = np.random.default_rng(seed)
    accepted = 0
    for i in range(MUTATIONS):
        data = mutate(source, rng)
        path.write_bytes(data)
        where = f"{kind} seed {seed}, mutation {i}, bytes {data!r}"
        try:
            try:
                obj = read(path)
            except FourierDGError:
                continue
            # accepted: written back, it reads back equal and writes the same bytes
            write(first, obj)
            back = read(first)
            write(second, back)
        except Exception as e:
            pytest.fail(f"{where}: {type(e).__name__}: {e}")
        assert key(back) == key(obj), f"{where}: does not read back equal"
        assert first.read_bytes() == second.read_bytes(), f"{where}: write-back bytes differ"
        accepted += 1
    # the mutations reach both outcomes
    assert 0 < accepted < MUTATIONS
