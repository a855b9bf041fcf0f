"""Memory bounds of the scoring hand-off: cohort generation, ingest,
checkpoint save and load, gene and sample gathers, scoring.

Each bound is on the tracemalloc peak, the most bytes that Python and
numpy held at once during the call, counted from its start.  Unlike RSS
these counts are exact and repeatable, so the bounds can be tight.
"""

import dataclasses
import tracemalloc

import numpy as np

from fourierdg import fourier
from fourierdg.data import (
    align_genes,
    load_expression,
    select_hvg,
    subset_samples,
    write_expression,
    zscore_fit_apply,
)
from fourierdg.model import (
    Checkpoint,
    GrlConfig,
    batch_objective,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from fourierdg.synth import SynthConfig, generate
from fourierdg.tensor_core import Param, RngState, affine
from fourierdg.train import TrainConfig, _score, predict


def traced_peak(fn, *args):
    """``(fn(*args), peak bytes allocated during the call)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_expression_holds_about_one_matrix(tmp_path):
    gm, _ = generate(SynthConfig(genes=400, per_domain=50, seed=2))
    path = tmp_path / "e.csv"
    write_expression(path, gm)
    back, peak = traced_peak(load_expression, path)
    assert back.values.tobytes() == gm.values.tobytes()
    # the file text, its lines and a Python float per cell are never held
    assert peak <= 3 * gm.values.nbytes, peak / gm.values.nbytes


def test_generate_writes_rows_in_place():
    # the size of score_io's scoring cohort
    (gm, _), peak = traced_peak(generate, SynthConfig(genes=1000, per_domain=200, seed=7))
    # one domain's noise draw and row temporaries beside the output; no
    # per-domain blocks stacked into a second copy
    assert peak <= 1.6 * gm.values.nbytes, peak / gm.values.nbytes


def reference_shaped_checkpoint():
    """A small checkpoint with widths in roughly the reference proportions:
    w1 is half the arena."""
    gm, _ = generate(SynthConfig(genes=120, per_domain=10, seed=2))
    params = init_params(gm.gene_names, 6, RngState(0), hidden=128, d=96, disc_hidden=64)
    _, stats = zscore_fit_apply(gm)
    return Checkpoint(params, stats, GrlConfig(1.0),
                      dataclasses.asdict(TrainConfig()), [f"D{i}" for i in range(6)])


def test_save_checkpoint_does_not_hold_the_document(tmp_path):
    ckpt = reference_shaped_checkpoint()
    path = tmp_path / "m.bin"
    _, peak = traced_peak(save_checkpoint, path, ckpt)
    size = path.stat().st_size
    # the header line and the file's write buffer; the arrays are written
    # from where they are
    assert peak <= 0.1 * size, peak / size


def test_load_checkpoint_holds_no_document(tmp_path):
    ckpt = reference_shaped_checkpoint()
    path = tmp_path / "m.bin"
    save_checkpoint(path, ckpt)
    loaded, peak = traced_peak(load_checkpoint, path)
    assert loaded.params.values.tobytes() == ckpt.params.values.tobytes()
    size = path.stat().st_size
    # the header, the read buffer and the model's small arrays; the body is
    # read straight into the arena, which tracemalloc does not see
    assert peak <= 0.2 * size, peak / size


def test_column_and_row_gathers_copy_once():
    gm, _ = generate(SynthConfig(genes=400, per_domain=50, seed=2))
    genes = gm.gene_names[::-1]
    aligned, peak = traced_peak(align_genes, gm, genes)
    assert aligned.values.flags.c_contiguous
    assert aligned.values.tobytes() == gm.values[:, ::-1].tobytes()
    assert peak <= 1.25 * aligned.values.nbytes, peak / aligned.values.nbytes
    rows, peak = traced_peak(subset_samples, gm, range(0, 300, 2))
    assert rows.values.tobytes() == gm.values[::2].tobytes()
    assert peak <= 1.25 * rows.values.nbytes, peak / rows.values.nbytes


def test_affine_adds_bias_in_place():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((300, 40))
    w, b = Param(rng.standard_normal((40, 256))), Param(rng.standard_normal(256))
    y, peak = traced_peak(affine, x, w, b)
    assert y.tobytes() == (x @ w.value + b.value).tobytes()
    assert peak <= 1.5 * y.nbytes, peak / y.nbytes


def test_eval_score_reuses_its_buffers():
    rows, hidden = 300, 256
    gm, _ = generate(SynthConfig(genes=40, per_domain=50, seed=2))
    x, _ = zscore_fit_apply(gm)
    params = init_params(gm.gene_names, 6, RngState(0), hidden=hidden, d=16, disc_hidden=8)
    values = np.ascontiguousarray(x.values[:rows])
    scores, peak = traced_peak(_score, values, params)
    assert scores.shape == (rows,)
    activation = rows * hidden * 8
    # the second block's activation and small arrays beside the first; each
    # block normalizes and applies ReLU in the buffer its affine returned
    assert peak <= 1.25 * activation, peak / activation


def test_predict_holds_one_cohort_copy_and_the_activations():
    # score_io's scoring cohort and the reference widths
    cohort, _ = generate(SynthConfig(genes=1000, per_domain=200, seed=7))
    _, stats = zscore_fit_apply(cohort)
    hidden, d = 1024, 740
    params = init_params(cohort.gene_names, 6, RngState(0),
                         hidden=hidden, d=d, disc_hidden=256)
    ckpt = Checkpoint(params, stats, GrlConfig(1.0),
                      dataclasses.asdict(TrainConfig()), [f"D{i}" for i in range(6)])
    scores, peak = traced_peak(predict, cohort, ckpt)
    rows = len(cohort.sample_ids)
    assert scores.shape == (rows,)
    bound = cohort.values.nbytes + rows * (hidden + d) * 8 + 2**20
    assert peak <= bound, (peak / 1e6, bound / 1e6)


def test_training_step_writes_weight_gradients_in_place():
    # one float32 step at the reference widths, as fit takes it
    rng = RngState(0)
    params = init_params(1000, 6, rng, hidden=1024, d=740, disc_hidden=256,
                         dtype=np.float32)
    x = rng.normal((64, 1000)).astype(np.float32)
    response, domain = np.arange(64) % 2, np.arange(64) % 6
    args = (x, response, domain, params, GrlConfig(1.0), 1.0, 1.0, rng, 0.1)
    batch_objective(*args)  # warm-up: first-call allocations are not the step's
    _, peak = traced_peak(batch_objective, *args)
    # the activations and their gradients; no temporary the size of w1's
    # gradient (4.10 MB), which a zeroed arena plus ``grad += x.T @ dy``
    # needed (6.43 MB peak against 3.16 MB)
    assert peak < params.w1.grad.nbytes, (peak / 1e6, params.w1.grad.nbytes / 1e6)


def test_basis_build_holds_only_the_cached_matrices():
    fourier._cached_basis.cache_clear()
    basis, peak = traced_peak(fourier.build_basis, 740, np.float32)
    kept = basis.matrix.nbytes + fourier.build_basis(740).matrix.nbytes
    # rows are written into the cached float64 matrix and snapped 64 rows at
    # a time; no row list, stacked copy or matrix-sized mask (17.6 MB)
    assert peak <= 1.2 * kept, (peak / 1e6, kept / 1e6)


def test_basis_cache_keeps_one_width():
    fourier._cached_basis.cache_clear()
    widths = (1020, 1018, 1016, 1014)
    tracemalloc.start()
    try:
        for d in widths:
            fourier.build_basis(d, np.float32)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    one_width = widths[-1] ** 2 * (8 + 4)
    # the last width at float64 and float32; the widths before it are
    # dropped once no model holds them (an 8-entry cache held 50 MB here)
    assert held <= 1.2 * one_width, (held / 1e6, one_width / 1e6)


def test_select_hvg_holds_no_centred_copy():
    gm, _ = generate(SynthConfig(genes=400, per_domain=50, seed=2))
    out, peak = traced_peak(select_hvg, gm, 200)
    # the variance takes 64 columns at a time; a whole-matrix ``var`` held a
    # centred copy of the input (2.14x the output)
    assert peak <= 1.5 * out.values.nbytes, peak / out.values.nbytes
