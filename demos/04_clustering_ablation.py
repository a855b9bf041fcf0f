"""Ablation of the asymmetric frequency-space clustering loss.

Runs the leave-one-domain-out harness twice per seed, once with the
clustering constraint and once without, and prints the per-domain and
overall AUROC gap.  This is a scaled-down version of what the acceptance
suite runs (there: the full default benchmark, 5 seeds, 60 fits).
"""

from fourierdg.evaluate import ablate_faac
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig

gm, metas = generate(SynthConfig(domains=4, genes=120, per_domain=60, seed=3))
cfg = TrainConfig(
    lr=1e-3, batch_size=32, epochs=20, seed=1,
    enc_hidden=96, enc_out=48, disc_hidden=24,
)
seeds = [1, 2]
print(f"ablation over seeds {seeds} on 4 domains ({len(seeds) * 2 * 4} fits)...")
result = ablate_faac(gm, metas, cfg, seeds=seeds, hvg=100)

print()
print("per-run AUROC:")
for row in result.rows:
    state = "on " if row.faac_on else "off"
    print(f"  seed={row.seed} clustering={state} domain={row.domain}: {row.auroc:.4f}")

print()
print("per-domain mean gap (on - off):")
for domain, delta in result.per_domain_delta.items():
    print(f"  {domain}: {delta:+.4f}")
print(f"overall: on={result.mean_on:.4f} off={result.mean_off:.4f} "
      f"delta={result.delta:+.4f}")
