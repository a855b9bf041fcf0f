"""Golden bytes of every table the package writes.

Floats, numpy floats included, are written as ``repr(float(v))`` so that
reading a cell back with ``float`` returns the same double; a missing
value is an empty cell.
"""

import numpy as np
import pytest

from fourierdg.cli import run
from fourierdg.data import GeneMatrix, NormStats, SampleMeta, write_expression, write_metadata
from fourierdg.evaluate import (
    AblationResult,
    AblationRow,
    FoldResult,
    LodoReport,
    RocResult,
    write_ablation_csv,
    write_report_csv,
    write_roc_csv,
)
from fourierdg.losses import LossBreakdown
from fourierdg.model import Checkpoint, GrlConfig, init_params, save_checkpoint
from fourierdg.tensor_core import RngState
from fourierdg.train import EpochLog, write_log_csv


def written(tmp_path, writer, *args) -> bytes:
    path = tmp_path / "table.csv"
    writer(path, *args)
    return path.read_bytes()


METAS = [
    SampleMeta("s1", "lung", np.float64(0.25), 1),
    SampleMeta("s2", "skin", None, 0),
    SampleMeta("s3", "lung", -0.0, None),
    SampleMeta("s4", "skin", 1e-07, 1),
    SampleMeta("s5", "skin", 1e16, None),
]


def test_metadata(tmp_path):
    assert written(tmp_path, write_metadata, METAS) == (
        b"sample_id,domain,ic50,response\n"
        b"s1,lung,0.25,1\n"
        b"s2,skin,,0\n"
        b"s3,lung,-0.0,\n"
        b"s4,skin,1e-07,1\n"
        b"s5,skin,1e+16,\n"
    )


def test_epoch_log(tmp_path):
    logs = [
        EpochLog(1, LossBreakdown(np.float64(0.5), 0.69, -0.0, np.float64(1.19)),
                 np.float64(0.75)),
        EpochLog(2, LossBreakdown(1e-07, 1e16, 0.125, 3.0), 1.0),
    ]
    assert written(tmp_path, write_log_csv, logs) == (
        b"epoch,l_asy,l_adv,l_cls,total,train_auc\n"
        b"1,0.5,0.69,-0.0,1.19,0.75\n"
        b"2,1e-07,1e+16,0.125,3.0,1.0\n"
    )


def test_roc(tmp_path):
    roc = RocResult(0.75, [(0.0, -0.0), (np.float64(1e-07), 0.5), (1.0, 1e16)])
    assert written(tmp_path, write_roc_csv, roc) == (
        b"fpr,tpr\n0.0,-0.0\n1e-07,0.5\n1.0,1e+16\n"
    )


def test_lodo_report_with_all_row(tmp_path):
    report = LodoReport(
        entries=[
            FoldResult("D0", np.zeros(10), np.array([1] * 4 + [0] * 6),
                       RocResult(np.float64(0.875), [])),
            FoldResult("D1", np.zeros(8), np.array([1] * 3 + [0] * 5), RocResult(1e-07, [])),
        ],
        mean_auroc=np.float64(0.4375),
    )
    assert written(tmp_path, write_report_csv, report) == (
        b"domain,n_test,n_pos,n_neg,auroc\n"
        b"D0,10,4,6,0.875\n"
        b"D1,8,3,5,1e-07\n"
        b"ALL,18,7,11,0.4375\n"
    )


def test_ablation(tmp_path):
    result = AblationResult(
        rows=[
            AblationRow(1, True, "D0", np.float64(0.875)),
            AblationRow(1, False, "D0", -0.0),
            AblationRow(2, True, "D1", 1e16),
        ],
        mean_on=0.5, mean_off=0.0, delta=0.5, per_domain_delta={},
    )
    assert written(tmp_path, write_ablation_csv, result) == (
        b"seed,faac,domain,auroc\n1,1,D0,0.875\n1,0,D0,-0.0\n2,1,D1,1e+16\n"
    )


@pytest.mark.parametrize("bias,cell", [
    (0.0, "0.5"), (-50.0, "1e-12"), (50.0, "0.999999999999"),
])
def test_predict_scores(tmp_path, bias, cell):
    # a zero classifier weight makes every score sigmoid(bias), clamped
    params = init_params(3, 2, RngState(0), hidden=4, d=2, disc_hidden=2)
    params.clf_w.value[...] = 0.0
    params.clf_b.value[...] = bias
    stats = NormStats(params.gene_list, np.zeros(3), np.ones(3))
    ckpt = Checkpoint(params, stats, GrlConfig(1.0), {}, ["A", "B"])
    ck, expr, out = tmp_path / "ck.json", tmp_path / "e.csv", tmp_path / "s.csv"
    save_checkpoint(ck, ckpt)
    write_expression(expr, GeneMatrix(["x1", "x2"], params.gene_list, np.eye(2, 3)))
    assert run(["predict", "--expr", str(expr), "--checkpoint", str(ck),
                "--out-scores", str(out)]) == 0
    assert out.read_bytes() == f"sample_id,score\nx1,{cell}\nx2,{cell}\n".encode()
