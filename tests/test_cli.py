"""Command-line surface: flags, validation, determinism, round trips."""

import json
import sys
from dataclasses import fields

import pytest

from fourierdg.cli import TRAIN_FLAGS, _train_config, build_parser, run
from fourierdg.data import align_genes, load_expression, load_metadata, zscore_fit_apply
from fourierdg.fourier import project
from fourierdg.losses import class_cosines
from fourierdg.model import encode, load_checkpoint
from fourierdg.train import TrainConfig

FAST_TRAIN = [
    "--epochs", "3", "--batch", "16", "--lr", "1e-3",
    "--enc-hidden", "32", "--enc-out", "16", "--disc-hidden", "8",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    cfg = root / "synth.json"
    cfg.write_text(json.dumps({"domains": 3, "genes": 40, "per_domain": 30, "seed": 5}))
    expr = root / "expr.csv"
    meta = root / "meta.csv"
    rc = run(["synth", "--config", str(cfg),
              "--out-expr", str(expr), "--out-meta", str(meta)])
    assert rc == 0
    return expr, meta


def train_args(expr, meta, out_dir, tag, extra=()):
    return [
        "train", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
        "--seed", "1",
        "--out-checkpoint", str(out_dir / f"ck_{tag}.json"),
        "--out-log", str(out_dir / f"log_{tag}.csv"),
        *extra,
    ]


class TestGradcheck:
    def test_prints_small_error(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("max_rel_err=")]
        assert len(line) == 1
        assert float(line[0].split("=", 1)[1]) < 1e-4


class TestValidation:
    def test_epochs_zero(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run([
            "train", "--expr", str(expr), "--meta", str(meta),
            "--epochs", "0",
            "--out-checkpoint", str(tmp_path / "x.json"),
            "--out-log", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "epochs" in capsys.readouterr().err

    def test_out_embedding_is_unknown(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run(train_args(expr, meta, tmp_path, "emb", extra=["--out-embedding", "x.csv"]))
        assert rc == 1
        assert "unrecognized arguments: --out-embedding" in capsys.readouterr().err
        assert not (tmp_path / "ck_emb.json").exists()

    @pytest.mark.parametrize("command, outputs", [
        ("train", ["--out-checkpoint", "c.json", "--out-log", "l.csv"]),
        ("lodo", ["--out-report", "r.csv"]),
        ("ablate", ["--out-table", "t.csv"]),
    ], ids=["train", "lodo", "ablate"])
    def test_hvg_zero_before_any_file(self, tmp_path, capsys, command, outputs):
        rc = run([command, "--expr", str(tmp_path / "nope.csv"),
                  "--meta", str(tmp_path / "nope_meta.csv"), "--hvg", "0", *outputs])
        assert rc == 1
        assert capsys.readouterr().err == "error: hvg must be >= 1, got 0\n"

    # a domain that would not read back from the report or table is refused
    # by load_metadata, naming the file and line
    READ_BACK = "{tsv}: line {line}: domain 'D0,y' contains the delimiter ','; " \
                "it would not read back"

    @pytest.mark.parametrize("command, domain, problem", [
        ("lodo", "D0/x", "domain 'D0/x' contains a path separator; it cannot name a ROC file"),
        ("lodo", "D0,y", READ_BACK),
        ("ablate", "D0,y", READ_BACK),
    ], ids=["lodo-slash", "lodo-comma", "ablate-comma"])
    def test_unwritable_domain_before_any_fold(self, dataset, tmp_path, capsys,
                                               monkeypatch, command, domain, problem):
        expr, meta = dataset
        rows = [line.split(",") for line in meta.read_text().splitlines()]
        for row in rows[1:]:
            row[1] = domain if row[1] == "D0" else row[1]
        tsv = tmp_path / "meta.tsv"
        tsv.write_text("".join("\t".join(row) + "\n" for row in rows))

        def fail(*_):
            raise AssertionError("fit called")

        monkeypatch.setattr("fourierdg.train.fit", fail)
        out = tmp_path / "out.csv"
        outputs = {"lodo": ["--out-report", str(out), "--out-roc-dir", str(tmp_path / "rocs")],
                   "ablate": ["--out-table", str(out)]}[command]
        rc = run([command, "--expr", str(expr), "--meta", str(tsv), *FAST_TRAIN, *outputs])
        assert rc == 1
        line = next(i for i, row in enumerate(rows, start=1) if row[1] == domain)
        assert capsys.readouterr().err == f"error: {problem.format(tsv=tsv, line=line)}\n"
        assert not out.exists()

    def test_malformed_flag_value(self, capsys):
        rc = run(["train", "--expr", "e", "--meta", "m", "--lr", "abc",
                  "--out-checkpoint", "c", "--out-log", "l"])
        assert rc == 1
        assert "--lr" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        rc = run(["gradcheck", "--bogus", "1"])
        assert rc == 1
        assert "--bogus" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = run([
            "train", "--expr", str(tmp_path / "nope.csv"), "--meta", str(tmp_path / "m.csv"),
            "--out-checkpoint", str(tmp_path / "c.json"), "--out-log", str(tmp_path / "l.csv"),
        ])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["--expr", "--meta"])
    def test_non_utf8_input_is_validation_error(self, dataset, tmp_path, capsys, which):
        expr, meta = dataset
        source = expr if which == "--expr" else meta
        bad = tmp_path / source.name
        bad.write_bytes(source.read_bytes().replace(b"\n", b"\ncaf\xe9", 1))
        args = train_args(expr, meta, tmp_path, "latin1")
        args[args.index(which) + 1] = str(bad)
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: not UTF-8 text: cannot decode byte 0xe9\n"
        assert not (tmp_path / "ck_latin1.json").exists()

    def test_bad_metadata_row_names_the_file(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        lines = meta.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2\n"
        bad = tmp_path / "meta.csv"
        bad.write_text("".join(lines))
        assert run(train_args(expr, bad, tmp_path, "badrow")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 3: response must be 0 or 1, got '2'\n"

    def test_non_utf8_checkpoint_is_validation_error(self, dataset, tmp_path, capsys):
        expr, _ = dataset
        ckpt = tmp_path / "latin1.json"
        ckpt.write_bytes(b'{"format_version": 3, "gene_list": ["caf\xe9"]}')
        rc = run(["predict", "--expr", str(expr), "--checkpoint", str(ckpt),
                  "--out-scores", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"error: {ckpt}: checkpoint is not UTF-8 text: "
                       f"cannot decode byte 0xe9\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text, expected", [
        ('{"format_version": 3,', "checkpoint is not valid JSON: Expecting "),
        ('{"format_version": 3}', "checkpoint is missing field 'arrays'\n"),
        ('{"format_version": 2, "params": {}}', "unsupported checkpoint format_version 2\n"),
    ], ids=["invalid-json", "missing-field", "format-2"])
    def test_bad_checkpoint_names_the_file(self, dataset, tmp_path, capsys,
                                           text, expected):
        expr, _ = dataset
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(text)
        rc = run(["predict", "--expr", str(expr), "--checkpoint", str(ckpt),
                  "--out-scores", str(tmp_path / "s.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {expected}")
        assert err.count("\n") == 1
        assert not (tmp_path / "s.csv").exists()

    def test_diverged_training_is_runtime_failure(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run(train_args(expr, meta, tmp_path, "diverge", ["--lr", "1e300"]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at epoch 1, batch index ")
        assert err.count("\n") == 1
        assert not (tmp_path / "ck_diverge.json").exists()

    def test_missing_subcommand(self, capsys):
        assert run([]) == 1

    @pytest.mark.parametrize("text, message", [
        ("{not json", None), ("[1, 2]", None),
        ('{"genes": "abc"}', "genes must be int, got 'abc'"),
        ('{"genes": 2.5}', "genes must be int, got 2.5"),
    ], ids=["invalid-json", "not-an-object", "string-for-int", "float-for-int"])
    def test_malformed_synth_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "synth.json"
        cfg.write_text(text)
        rc = run(["synth", "--config", str(cfg),
                  "--out-expr", str(tmp_path / "e.csv"),
                  "--out-meta", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if message is not None:
            assert err == f"error: {cfg}: {message}\n"
        assert err.count("\n") == 1
        assert not (tmp_path / "e.csv").exists()

    def test_bad_seeds_list(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run([
            "ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--seeds", "1,x", "--out-table", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert "seeds" in capsys.readouterr().err

    def test_repeated_seed_before_any_fold(self, dataset, tmp_path, capsys, monkeypatch):
        expr, meta = dataset

        def fail(*_):
            raise AssertionError("fit called")

        monkeypatch.setattr("fourierdg.train.fit", fail)
        table = tmp_path / "t.csv"
        rc = run(["ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
                  "--seeds", "1,2,1", "--out-table", str(table)])
        assert rc == 1
        assert capsys.readouterr().err == "error: ablation seeds must be distinct, got [1, 2, 1]\n"
        assert not table.exists()

    def test_zero_lambda1_ablation_before_any_fold(self, dataset, tmp_path, capsys,
                                                   monkeypatch):
        expr, meta = dataset

        def fail(*_, **__):
            raise AssertionError("lodo_run called")

        monkeypatch.setattr("fourierdg.evaluate.lodo_run", fail)
        table = tmp_path / "t.csv"
        rc = run(["ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
                  "--lambda1", "0", "--seeds", "1,2", "--out-table", str(table)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ablation needs lambda1 > 0")
        assert not table.exists()

    def test_roc_dir_that_is_a_file_before_any_fold(self, dataset, tmp_path, capsys,
                                                    monkeypatch):
        expr, meta = dataset

        def fail(*_, **__):
            raise AssertionError("lodo_run called")

        monkeypatch.setattr("fourierdg.evaluate.lodo_run", fail)
        roc_dir = tmp_path / "rocs"
        roc_dir.write_text("a file\n")
        report = tmp_path / "report.csv"
        rc = run(["lodo", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
                  "--out-report", str(report), "--out-roc-dir", str(roc_dir)])
        assert rc == 1
        assert str(roc_dir) in capsys.readouterr().err
        assert not report.exists()


class TestTrainFlags:
    def test_table_covers_every_config_field_but_seed(self):
        flagged = [field for _, field in TRAIN_FLAGS]
        assert sorted(flagged) == sorted(
            f.name for f in fields(TrainConfig) if f.name != "seed"
        )

    def test_defaults_are_train_config(self):
        args = build_parser().parse_args([
            "train", "--expr", "e", "--meta", "m",
            "--out-checkpoint", "c", "--out-log", "l",
        ])
        assert _train_config(args) == TrainConfig(seed=0)


# Every option string of every subcommand, spelled out so that adding or
# removing an option shows in this file.
TRAINING_OPTIONS = {
    "--hvg", "--seed", "--lambda1", "--lambda2", "--lr", "--batch", "--epochs",
    "--grl", "--dropout", "--enc-hidden", "--enc-out", "--disc-hidden",
}
OPTION_CENSUS = {
    "synth": {"--config", "--seed", "--out-expr", "--out-meta"},
    "train": {"--expr", "--meta", *TRAINING_OPTIONS,
              "--out-checkpoint", "--out-log"},
    "predict": {"--expr", "--checkpoint", "--out-scores"},
    "lodo": {"--expr", "--meta", *TRAINING_OPTIONS, "--out-report", "--out-roc-dir"},
    "ablate": {"--expr", "--meta", *TRAINING_OPTIONS, "--seeds", "--out-table"},
    "gradcheck": set(),
}


def test_option_census():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if a.choices]
    found = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert found == OPTION_CENSUS


class TestResolvedConfig:
    def test_defaults_printed(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        # default lr/dropout/hvg with a tiny epoch count for speed
        rc = run([
            "train", "--expr", str(expr), "--meta", str(meta),
            "--epochs", "1", "--batch", "16",
            "--enc-hidden", "16", "--enc-out", "8", "--disc-hidden", "4",
            "--out-checkpoint", str(tmp_path / "c.json"),
            "--out-log", str(tmp_path / "l.csv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        config_line = [ln for ln in out.splitlines() if ln.startswith("config:")][0]
        assert "lr=8e-05" in config_line
        assert "dropout=0.1" in config_line
        assert "hvg=3000" in config_line
        assert "command=train" in config_line

    def test_every_subcommand_prints_config(self, capsys):
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert any(ln.startswith("config: command=gradcheck") for ln in out.splitlines())

    @pytest.mark.parametrize("argv", [
        ["train", "--expr", "e", "--meta", "m", "--out-checkpoint", "c", "--out-log", "l"],
        ["lodo", "--expr", "e", "--meta", "m", "--out-report", "r"],
        ["ablate", "--expr", "e", "--meta", "m", "--out-table", "t"],
    ], ids=["train", "lodo", "ablate"])
    def test_seed_defaults_to_zero(self, argv):
        assert build_parser().parse_args(argv).seed == 0


class TestRoundTrip:
    def test_synth_train_predict(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run(train_args(expr, meta, tmp_path, "rt"))
        assert rc == 0
        scores = tmp_path / "scores.csv"
        rc = run(["predict", "--expr", str(expr),
                  "--checkpoint", str(tmp_path / "ck_rt.json"),
                  "--out-scores", str(scores)])
        assert rc == 0
        lines = scores.read_text().splitlines()
        assert lines[0] == "sample_id,score"
        assert len(lines) == 91
        for ln in lines[1:]:
            value = float(ln.split(",")[1])
            assert 0.0 < value < 1.0

    def test_deterministic_outputs(self, dataset, tmp_path):
        expr, meta = dataset
        assert run(train_args(expr, meta, tmp_path, "a")) == 0
        assert run(train_args(expr, meta, tmp_path, "b")) == 0
        assert (tmp_path / "ck_a.json").read_bytes() == (tmp_path / "ck_b.json").read_bytes()
        assert (tmp_path / "log_a.csv").read_bytes() == (tmp_path / "log_b.csv").read_bytes()

    def test_default_benchmark_default_widths_smoke(self, tmp_path):
        # default generator (600 x 200) through default-width training
        # (1024/740, hvg clamped from 3000 to 200); epochs capped for speed
        expr, meta = tmp_path / "e.csv", tmp_path / "m.csv"
        assert run(["synth", "--out-expr", str(expr), "--out-meta", str(meta)]) == 0
        rc = run([
            "train", "--expr", str(expr), "--meta", str(meta),
            "--epochs", "2", "--seed", "1",
            "--out-checkpoint", str(tmp_path / "ck.json"),
            "--out-log", str(tmp_path / "log.csv"),
        ])
        assert rc == 0
        scores = tmp_path / "scores.csv"
        assert run(["predict", "--expr", str(expr),
                    "--checkpoint", str(tmp_path / "ck.json"),
                    "--out-scores", str(scores)]) == 0
        assert len(scores.read_text().splitlines()) == 601

    def test_class_cosines_printed_once(self, dataset, tmp_path, capsys):
        # the geometry of the training rows' features in eval mode
        expr, meta = dataset
        assert run(train_args(expr, meta, tmp_path, "geo")) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("class cosines")]
        ckpt = load_checkpoint(tmp_path / "ck_geo.json")
        gm, _ = zscore_fit_apply(align_genes(load_expression(expr), ckpt.params.gene_list),
                                 ckpt.stats)
        z = project(encode(gm.values, ckpt.params, "eval"), ckpt.params.basis)
        pos, cross, neg = class_cosines(z, [m.response for m in load_metadata(meta)])
        assert printed == [
            f"class cosines (training rows, eval mode): sensitive={pos:.4f} "
            f"sensitive_resistant={cross:.4f} resistant={neg:.4f}"
        ]

    def test_train_standardizes_once(self, dataset, tmp_path, monkeypatch):
        # every fourierdg namespace that holds zscore_fit_apply gets the
        # counting wrapper, so a call through any import path is seen
        expr, meta = dataset
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return zscore_fit_apply(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "fourierdg" or name.startswith("fourierdg."):
                for key, value in list(vars(module).items()):
                    if value is zscore_fit_apply:
                        monkeypatch.setattr(module, key, counted)
        assert run(train_args(expr, meta, tmp_path, "once")) == 0
        assert len(calls) == 1


class TestLodoAndAblate:
    def test_lodo_report(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        report = tmp_path / "report.csv"
        roc_dir = tmp_path / "rocs"
        rc = run([
            "lodo", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--seed", "1",
            "--out-report", str(report), "--out-roc-dir", str(roc_dir),
        ])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "domain,n_test,n_pos,n_neg,auroc"
        assert len(lines) == 1 + 3 + 1
        assert sorted(p.name for p in roc_dir.iterdir()) == [
            "roc_D0.csv", "roc_D1.csv", "roc_D2.csv",
        ]
        assert "mean auroc=" in capsys.readouterr().out

    def test_ablate_table(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        table = tmp_path / "table.csv"
        rc = run([
            "ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--epochs", "2", "--seeds", "1,2", "--out-table", str(table),
        ])
        assert rc == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "seed,faac,domain,auroc"
        assert len(lines) == 1 + 2 * 2 * 3
        assert "delta=" in capsys.readouterr().out
