"""fourierdg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train_ref --seed 0 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (set-up is repeated, see
SETUP_REPEATS, and its median reported), then runs ops back to back
for ``--seconds`` seconds, checking every op's output.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
every second op runs under the span tracer, and the last line carries the
per-layer metrics plus the tracing overhead.  Lines before it print every
figure by name with its unit and direction, and a full record goes to
``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3     # set-up runs at least this often ...
SETUP_SECONDS = 2.0   # ... and until this much set-up time has accumulated
MIN_OPS = 2


def _import_package():
    """Import fourierdg from this checkout's src/, never from elsewhere."""
    if not (SRC / "fourierdg" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'fourierdg'} not found; run from a fourierdg checkout")
    sys.path.insert(0, str(SRC))
    import fourierdg

    if Path(fourierdg.__file__).resolve().parent != SRC / "fourierdg":
        sys.exit(f"error: imported fourierdg from {fourierdg.__file__}, not {SRC}")
    return fourierdg


def _blas_threads():
    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "fourierdg").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    return pct, sorted(values)[max(0, -(-pct * n // 100) - 1)]


@dataclass
class Op:
    stages: Optional[dict]  # stage -> timed seconds; None if the op raised
    traced: bool
    problems: list

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def one_op(workload, traced: bool, tracer, index: int) -> tuple[Op, bytes]:
    """Run and check one op; its output is released on return."""
    op = Op(None, traced, [])
    fingerprint = b""
    try:
        if traced:
            with tracer.recording(f"op{index}"):
                out, op.stages = workload.op()
        else:
            out, op.stages = workload.op()
        op.problems, fingerprint = workload.check(out)
    except Exception as exc:
        traceback.print_exc()
        op.problems.append(f"raised {exc!r}")
    return op, fingerprint


def run_ops(workload, seconds, tracer=None) -> list[Op]:
    """Run ops back to back for ``seconds`` (at least MIN_OPS of them).
    With a tracer every second op is traced, so traced and untraced ops
    share the same machine conditions."""
    ops: list[Op] = []
    reference = None
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        gc.collect()  # start every op from the same heap state
        op, fingerprint = one_op(workload, traced, tracer, len(ops))
        if op.stages is not None:
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                op.problems.append("output differs from the first op's (same inputs)")
        ops.append(op)
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the schema test only")
    args = ap.parse_args(argv)

    fdg = _import_package()
    import tracer as tr
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    sizes = wl.TINY if args.tiny else wl.REFERENCE
    workdir = OUT / f"work_{args.workload}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            workload = None  # free the previous set-up's inputs first
            t0 = time.perf_counter()
            workload = wl.WORKLOADS[args.workload](args.seed, sizes, workdir)
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        tracer = None
        if args.trace:
            tracer = tr.Tracer(args.workload, fdg)
            with tracer.recording("setup"):
                workload.setup()
        ops = run_ops(workload, args.seconds, tracer)
        plain = [o for o in ops if o.stages is not None and not o.traced]
        traced = [o for o in ops if o.stages is not None and o.traced]
        if not plain or (args.trace and not traced):
            print("error: no op completed", file=sys.stderr)
            return 1
        figures = workload.figures([o.stages for o in plain])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in ops if o.problems)
    env = environment()
    op_s = [o.seconds for o in plain]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "setup_s": setup_s, "op_s": op_s, "stages": [o.stages for o in plain],
        "problems": {i: o.problems for i, o in enumerate(ops) if o.problems},
    }

    print(f"# fourierdg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    tail = tail_percentile(op_s)
    print(f"untraced ops n={len(op_s)} median={statistics.median(op_s):.4f}s "
          + (f"p{tail[0]}={tail[1]:.4f}s" if tail else "tail=n/a (fewer than 11 ops)"))
    for i, problems in record["problems"].items():
        print(f"FAILED op {i}: {'; '.join(problems)}")
    print(f"error_rate {failed / len(ops):.4f} ({failed}/{len(ops)} ops failed, lower is better)")

    if args.trace:
        layers, profile = tr.layer_metrics(tracer)
        overhead = statistics.median(o.seconds for o in traced) / statistics.median(op_s)
        layers["trace.overhead_ratio"] = (overhead, "ratio")
        span_path = OUT / f"spans_{args.workload}_seed{args.seed}.csv"
        tracer.write(span_path)
        print(f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
        print("self time per traced op by module (ms):")
        for mod, ms in sorted(profile.items(), key=lambda kv: -kv[1]):
            print(f"  {mod:12s} {ms:12.3f}")
        for name, (value, unit) in sorted(layers.items()):
            print(f"layer {name} {value:.6g} {unit}")
        record.update(layers={k: v[0] for k, v in layers.items()}, profile=profile)
        emitted = layers
    else:
        e2e = {
            "setup_s": (statistics.median(setup_s), "s", "lower"),
            "op_s": (statistics.median(op_s), "s", "lower"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB", "lower"),
        }
        for name, (value, unit, better) in {**e2e, **figures}.items():
            print(f"metric {name} {value:.6g} {unit} ({better} is better)")
        record.update(metrics={k: v[0] for k, v in {**e2e, **figures}.items()})
        emitted = {k: v[:2] for k, v in e2e.items()}

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in emitted]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {n: {"value": emitted[n][0], "unit": emitted[n][1]} for n in names}

    OUT.mkdir(exist_ok=True)
    bench_path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    bench_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
