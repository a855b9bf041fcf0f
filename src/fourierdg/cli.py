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
    binarize_ic50,
    load_expression,
    load_metadata,
    match_metadata,
    write_expression,
    write_metadata,
    write_table,
)
from .errors import FourierDGError, ParameterError, TrainingDivergedError, naming_path
from .losses import class_cosines
from .model import encode, gradient_suite, load_checkpoint, save_checkpoint
from .train import TrainConfig, predict, train_checkpoint, write_log_csv

GRADCHECK_TOL = 1e-4

# (flag, TrainConfig field) for every training option but the seed, which
# --seed sets; defaults and types come from TrainConfig().
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
    pairs = [f"{k}={v}" for k, v in sorted(fields.items())]
    print(" ".join(["config:", f"command={command}", *pairs]))


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--hvg", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("predict", help="score samples with a checkpoint")
    p.add_argument("--expr", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-scores", required=True)

    p = sub.add_parser("lodo", help="leave-one-domain-out evaluation")
    p.add_argument("--expr", required=True)
    p.add_argument("--meta", required=True)
    _add_train_flags(p)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-roc-dir", default=None)

    p = sub.add_parser("ablate", help="LODO with the clustering loss on/off")
    p.add_argument("--expr", required=True)
    p.add_argument("--meta", required=True)
    _add_train_flags(p)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--out-table", required=True)

    sub.add_parser("gradcheck", help="finite-difference audit of gradients")

    return parser


def _train_config(args: argparse.Namespace) -> TrainConfig:
    # argparse's dest for --enc-hidden is enc_hidden
    fields = {field: getattr(args, flag[2:].replace("-", "_"))
              for flag, field in TRAIN_FLAGS}
    cfg = TrainConfig(seed=args.seed, **fields)
    cfg.validate()
    if args.hvg < 1:
        raise ParameterError(f"hvg must be >= 1, got {args.hvg}")
    return cfg


def _load_labeled(expr_path: str, meta_path: str):
    gm = load_expression(expr_path)
    metas = match_metadata(gm, load_metadata(meta_path))
    if any(m.response is None for m in metas):
        metas = binarize_ic50(metas)
    return gm, metas


def _effective_hvg(requested: int, gene_count: int) -> int:
    if requested > gene_count:
        print(f"note: hvg clamped to {gene_count} available genes")
        return gene_count
    return requested


def _check_roc_names(metas):
    """Refuse, before the first fold trains, a held-out domain that could
    not name a ROC file.  (load_metadata has already refused a domain that
    the report could not hold as a cell.)"""
    for domain in evaluate.eligible_domains(metas):
        if os.sep in domain or (os.altsep and os.altsep in domain):
            raise ParameterError(
                f"domain {domain!r} contains a path separator; "
                "it cannot name a ROC file"
            )


@naming_path
def _read_synth_config(path) -> dict:
    """Generator fields from a JSON object, with values that
    ``SynthConfig.validate`` accepts."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            fields = json.load(fh)
        except ValueError as e:  # JSONDecodeError, UnicodeDecodeError
            raise ParameterError(f"not valid JSON: {e}") from None
    if not isinstance(fields, dict):
        raise ParameterError("generator config must be a JSON object")
    defaults = asdict(synth.SynthConfig())
    unknown = sorted(set(fields) - set(defaults))
    if unknown:
        raise ParameterError(f"unknown generator fields: {', '.join(unknown)}")
    synth.SynthConfig(**fields).validate()
    return fields


def _cmd_synth(args) -> int:
    fields = {}
    if args.config is not None:
        fields = _read_synth_config(args.config)
    if args.seed is not None:
        fields["seed"] = args.seed
    cfg = synth.SynthConfig(**fields)
    _print_resolved("synth", args, **asdict(cfg))
    gm, metas = synth.generate(cfg)
    write_expression(args.out_expr, gm)
    write_metadata(args.out_meta, metas)
    print(f"wrote {len(gm.sample_ids)} samples x {len(gm.gene_names)} genes")
    return 0


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    _print_resolved("train", args)
    gm, metas = _load_labeled(args.expr, args.meta)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    ckpt, logs, rows = train_checkpoint(gm, metas, cfg, hvg=k)
    for log in logs:
        print(
            f"epoch {log.epoch:03d} total={log.losses.total:.6f} "
            f"l_cls={log.losses.l_cls:.6f} train_auc={log.train_auc:.4f}"
        )
    save_checkpoint(args.out_checkpoint, ckpt)
    write_log_csv(args.out_log, logs)
    params = ckpt.params
    z = fourier.project(encode(rows.values, params, "eval"), params.basis)
    cos_pos, cos_cross, cos_neg = class_cosines(z, [m.response for m in metas])
    print(
        f"class cosines (training rows, eval mode): sensitive={cos_pos:.4f} "
        f"sensitive_resistant={cos_cross:.4f} resistant={cos_neg:.4f}"
    )
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
    cfg = _train_config(args)
    _print_resolved("lodo", args)
    gm, metas = _load_labeled(args.expr, args.meta)
    if args.out_roc_dir is not None:
        _check_roc_names(metas)
        os.makedirs(args.out_roc_dir, exist_ok=True)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    report = evaluate.lodo_run(gm, metas, cfg, hvg=k)
    for e in report.entries:
        print(f"domain {e.domain}: n_test={e.labels.size} auroc={e.roc.auroc:.4f}")
    print(f"mean auroc={report.mean_auroc:.4f}")
    evaluate.write_report_csv(args.out_report, report)
    if args.out_roc_dir is not None:
        for e in report.entries:
            evaluate.write_roc_csv(
                os.path.join(args.out_roc_dir, f"roc_{e.domain}.csv"), e.roc
            )
    return 0


def _cmd_ablate(args) -> int:
    cfg = _train_config(args)
    try:
        seeds = [int(tok) for tok in args.seeds.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"seeds must be comma-separated integers, got {args.seeds!r}")
    _print_resolved("ablate", args)
    gm, metas = _load_labeled(args.expr, args.meta)
    k = _effective_hvg(args.hvg, len(gm.gene_names))
    result = evaluate.ablate_faac(gm, metas, cfg, seeds, hvg=k)
    evaluate.write_ablation_csv(args.out_table, result)
    print(
        f"mean_on={result.mean_on:.4f} mean_off={result.mean_off:.4f} "
        f"delta={result.delta:.4f}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    _print_resolved("gradcheck", args)
    err = gradient_suite()
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
