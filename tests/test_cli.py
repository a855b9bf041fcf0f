"""Command-line surface: flags, validation, determinism, round trips."""

import json
from dataclasses import fields

import pytest

from fourierdg.cli import TRAIN_FLAGS, _train_config, build_parser, run
from fourierdg.data import write_expression, write_metadata
from fourierdg.synth import SynthConfig, generate
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

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"genes": "abc"}', '{"genes": 2.5}',
    ], ids=["invalid-json", "not-an-object", "string-for-int", "float-for-int"])
    def test_malformed_synth_config(self, tmp_path, capsys, text):
        cfg = tmp_path / "synth.json"
        cfg.write_text(text)
        rc = run(["synth", "--config", str(cfg),
                  "--out-expr", str(tmp_path / "e.csv"),
                  "--out-meta", str(tmp_path / "m.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_ablate_min_test_per_class_below_one(self, tmp_path, capsys, monkeypatch,
                                                 value):
        # domain D2 holds one class only; the bad value must be rejected
        # before any fold trains, not surface as a per-domain AUROC error
        gm, metas = generate(SynthConfig(domains=3, genes=40, per_domain=30, seed=5))
        for m in metas:
            if m.domain == "D2":
                m.response = 1
        expr, meta = tmp_path / "e.csv", tmp_path / "m.csv"
        write_expression(expr, gm)
        write_metadata(meta, metas)

        def fail(*_):
            raise AssertionError("fit called")

        monkeypatch.setattr("fourierdg.train.fit", fail)
        rc = run([
            "ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--seeds", "1,2", "--min-test-per-class", value,
            "--out-table", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert "min_test_per_class must be >= 1" in capsys.readouterr().err

    def test_bad_seeds_list(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        rc = run([
            "ablate", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--seeds", "1,x", "--out-table", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        assert "seeds" in capsys.readouterr().err


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
        assert _train_config(args, 0) == TrainConfig(seed=0)


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

    def test_env_seed_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("FOURIERDG_SEED", "77")
        assert run(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "seed=77" in out


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

    def test_embedding_export(self, dataset, tmp_path):
        expr, meta = dataset
        emb = tmp_path / "emb.csv"
        rc = run(train_args(expr, meta, tmp_path, "emb",
                            extra=["--out-embedding", str(emb)]))
        assert rc == 0
        lines = emb.read_text().splitlines()
        assert lines[0] == "sample_id,x,y,label"
        assert len(lines) == 91


class TestLodoAndAblate:
    def test_lodo_report(self, dataset, tmp_path, capsys):
        expr, meta = dataset
        report = tmp_path / "report.csv"
        roc_dir = tmp_path / "rocs"
        rc = run([
            "lodo", "--expr", str(expr), "--meta", str(meta), *FAST_TRAIN,
            "--seed", "1", "--min-test-per-class", "3",
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
