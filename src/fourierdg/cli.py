"""Command-line entry point.

Subcommands: synth, train, predict, lodo, ablate, gradcheck.  Every run
prints its resolved configuration before executing.  Exit codes: 0 on
success, 1 on validation errors (bad flags, malformed or missing files),
2 on runtime failures (diverged training included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import evaluate, fourier, synth
from .data import (
    align_genes,
    binarize_ic50,
    load_expression,
    load_metadata,
    match_metadata,
    write_expression,
    write_metadata,
    write_table,
    zscore_fit_apply,
)
from .errors import FourierDGError, ParameterError, TrainingDivergedError
from .model import encode, gradient_suite, load_checkpoint, save_checkpoint
from .train import TrainConfig, predict, train_checkpoint, write_log_csv

SEED_ENV_VAR = "FOURIERDG_SEED"
GRADCHECK_TOL = 1e-4

# (flag, TrainConfig field) for every training option but the seed, which
# --seed resolves; defaults and types come from TrainConfig().
TRAIN_FLAGS = (
    ("--lambda1", "lambda1"),
    ("--lambda2", "lambda2"),
    ("--lr", "lr"),
    ("--batch", "batch_size"),
    ("--epochs", "epochs"),
    ("--grl", "grl_coefficient"),
    ("--dropout", "dropout_p"),
    ("--enc-hidden", "enc_hidden"),
    ("--enc-out", "enc_out"),
    ("--disc-hidden", "disc_hidden"),
)


class CliUsageError(Exception):
    """Flag-level problem detected while parsing argv."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _print_resolved(command: str, args: argparse.Namespace, **extra):
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    fields.update(extra)
    pairs = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    print(f"config: command={command} {pairs}")


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return 0


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--hvg", type=int, default=3000)
    p.add_argument("--seed", type=int, default=None)
    defaults = TrainConfig()
    for flag, field in TRAIN_FLAGS:
        default = getattr(defaults, field)
        p.add_argument(flag, type=type(default), default=default)


def build_parser() -> _Parser:
    parser = _Parser(prog="fourierdg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="write a synthetic multi-domain benchmark")
    p.add_argument("--config", default=None, help="JSON file of generator fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-expr", required=True)
    p.add_argument("--out-meta", required=True)

    p = sub.add_parser("train", help="train on an expression/metadata pair")
    p.add_argument("--expr", required=True)
    p.add_argument("--meta", required=True)
    _add_train_flags(p)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", required=True)
    p.add_argument("--out-embedding", default=None,
                   help="optional CSV of 2-D projected training features")

    p = sub.add_parser("predict", help="score samples with a checkpoint")
    p.add_argument("--expr", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-scores", required=True)

    p = sub.add_parser("lodo", help="leave-one-domain-out evaluation")
    p.add_argument("--expr", required=True)
    p.add_argument("--meta", required=True)
    _add_train_flags(p)
    p.add_argument("--min-test-per-class", type=int, default=3)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-roc-dir", default=None)

    p = sub.add_parser("ablate", help="LODO with the clustering loss on/off")
    p.add_argument("--expr", required=True)
    p.add_argument("--meta", required=True)
    _add_train_flags(p)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--min-test-per-class", type=int, default=3)
    p.add_argument("--out-table", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference audit of gradients")
    p.add_argument("--seed", type=int, default=None)

    return parser


def _train_config(args: argparse.Namespace, seed: int) -> TrainConfig:
    # argparse's dest for --enc-hidden is enc_hidden
    fields = {field: getattr(args, flag[2:].replace("-", "_"))
              for flag, field in TRAIN_FLAGS}
    cfg = TrainConfig(seed=seed, **fields)
    cfg.validate()
    return cfg


def _load_labeled(expr_path: str, meta_path: str):
    gm = load_expression(expr_path)
    metas = match_metadata(gm, load_metadata(meta_path))
    if any(m.response is None for m in metas):
        metas = binarize_ic50(metas)
    return gm, metas


def _effective_hvg(requested: int, gene_count: int) -> int:
    if requested < 1:
        raise ParameterError(f"hvg must be >= 1, got {requested}")
    if requested > gene_count:
        print(f"note: hvg clamped to {gene_count} available genes")
        return gene_count
    return requested


def _read_synth_config(path) -> dict:
    """Generator fields from a JSON object; each value must have the type
    of its ``SynthConfig`` default (an integer may stand for a float)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fields = json.load(fh)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ParameterError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(fields, dict):
        raise ParameterError(f"{path}: generator config must be a JSON object")
    defaults = asdict(synth.SynthConfig())
    unknown = sorted(set(fields) - set(defaults))
    if unknown:
        raise ParameterError(f"unknown generator fields: {', '.join(unknown)}")
    for name, value in fields.items():
        want = type(defaults[name])
        if not (type(value) is want or (want is float and type(value) is int)):
            raise ParameterError(
                f"generator field {name!r} must be {want.__name__}, got {value!r}"
            )
    return fields


def _cmd_synth(args) -> int:
    fields = {}
    if args.config is not None:
        fields = _read_synth_config(args.config)
    if args.seed is not None or "seed" not in fields:
        fields["seed"] = _resolve_seed(args.seed)
    cfg = synth.SynthConfig(**fields)
    cfg.validate()
    _print_resolved("synth", args, **asdict(cfg))
    gm, metas = synth.generate(cfg)
    write_expression(args.out_expr, gm)
    write_metadata(args.out_meta, metas)
    print(f"wrote {len(gm.sample_ids)} samples x {len(gm.gene_names)} genes")
    return 0


def _cmd_train(args) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _train_config(args, seed)
    _print_resolved("train", args, seed=seed)
    gm, metas = _load_labeled(args.expr, args.meta)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    ckpt, logs = train_checkpoint(gm, metas, cfg, hvg=k)
    for log in logs:
        print(
            f"epoch {log.epoch:03d} total={log.losses.total:.6f} "
            f"l_cls={log.losses.l_cls:.6f} train_auc={log.train_auc:.4f}"
        )
    save_checkpoint(args.out_checkpoint, ckpt)
    write_log_csv(args.out_log, logs)
    if args.out_embedding is not None:
        params = ckpt.params
        gm, _ = zscore_fit_apply(align_genes(gm, params.gene_list), ckpt.stats)
        z = fourier.project(encode(gm.values, params, "eval"), params.basis)
        coords = evaluate.embed_2d(z)
        labels = [m.response for m in metas]
        evaluate.write_embedding_csv(args.out_embedding, gm.sample_ids, coords, labels)
    print(f"checkpoint -> {args.out_checkpoint}")
    return 0


def _cmd_predict(args) -> int:
    _print_resolved("predict", args)
    ckpt = load_checkpoint(args.checkpoint)
    gm = load_expression(args.expr)
    scores = predict(gm, ckpt)
    write_table(args.out_scores, ["sample_id", "score"], zip(gm.sample_ids, scores))
    print(f"scored {len(scores)} samples -> {args.out_scores}")
    return 0


def _cmd_lodo(args) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _train_config(args, seed)
    _print_resolved("lodo", args, seed=seed)
    gm, metas = _load_labeled(args.expr, args.meta)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    report = evaluate.lodo_run(gm, metas, cfg, args.min_test_per_class, hvg=k)
    for e in report.entries:
        print(f"domain {e.domain}: n_test={e.n_test} auroc={e.roc.auroc:.4f}")
    print(f"mean auroc={report.mean_auroc:.4f}")
    evaluate.write_report_csv(args.out_report, report)
    if args.out_roc_dir is not None:
        os.makedirs(args.out_roc_dir, exist_ok=True)
        # rerun is unnecessary: entries carry the points already
        for e in report.entries:
            evaluate.write_roc_csv(
                os.path.join(args.out_roc_dir, f"roc_{e.domain}.csv"), e.roc
            )
    return 0


def _cmd_ablate(args) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _train_config(args, seed)
    try:
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"seeds must be comma-separated integers, got {args.seeds!r}")
    _print_resolved("ablate", args, seed=seed)
    gm, metas = _load_labeled(args.expr, args.meta)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    result = evaluate.ablate_faac(gm, metas, cfg, seeds, args.min_test_per_class, hvg=k)
    evaluate.write_ablation_csv(args.out_table, result)
    print(
        f"mean_on={result.mean_on:.4f} mean_off={result.mean_off:.4f} "
        f"delta={result.delta:.4f}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    seed = _resolve_seed(args.seed)
    _print_resolved("gradcheck", args, seed=seed)
    err = gradient_suite(seed=seed)
    print(f"max_rel_err={err!r}")
    if err >= GRADCHECK_TOL:
        print(f"error: gradient mismatch exceeds {GRADCHECK_TOL}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "lodo": _cmd_lodo,
    "ablate": _cmd_ablate,
    "gradcheck": _cmd_gradcheck,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except TrainingDivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FourierDGError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - report and signal runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
