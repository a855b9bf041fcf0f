"""Train on the synthetic multi-domain benchmark and score a held-out
domain.

The generator encodes the working hypothesis of the whole model: every
drug-sensitive sample shares one signature direction while resistant
samples scatter across several mechanism directions, and each domain
(cancer type) adds its own shift.  Held-out-domain AUROC is the number
that matters, since that domain's shift was never seen in training.
"""

import numpy as np

from fourierdg.data import lodo_split
from fourierdg.evaluate import auroc, run_fold
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig

cfg_data = SynthConfig(domains=4, genes=120, per_domain=60, seed=3)
gm, metas = generate(cfg_data)
print(f"benchmark: {len(gm.sample_ids)} samples x {len(gm.gene_names)} genes, "
      f"{cfg_data.domains} domains")

held_out = "D3"
cfg = TrainConfig(
    lr=1e-3, batch_size=32, epochs=25, seed=1,
    enc_hidden=96, enc_out=48, disc_hidden=24,
)
print(f"holding out {held_out}; training on the rest "
      f"({cfg.epochs} epochs, widths {cfg.enc_hidden}/{cfg.enc_out})")

fold, _, logs = run_fold(gm, metas, held_out, cfg, hvg=100)
print()
print("loss trajectory (every 5th epoch):")
for log in logs[::5]:
    print(f"  epoch {log.epoch:3d}: total={log.losses.total:+.4f} "
          f"cls={log.losses.l_cls:.4f} adv={log.losses.l_adv:.4f} "
          f"asy={log.losses.l_asy:+.4f} train_auc={log.train_auc:.3f}")

print()
print(f"held-out {held_out} AUROC: {fold.roc.auroc:.4f} "
      f"({fold.labels.size} samples)")

# reference point: a plain ridge probe on the raw genes
train_idx, test_idx = lodo_split(metas, held_out)
design = np.column_stack([np.ones(len(train_idx)), gm.values[train_idx]])
y = np.array([metas[i].response for i in train_idx], dtype=np.float64)
beta = np.linalg.solve(design.T @ design + 1e-3 * np.eye(design.shape[1]),
                       design.T @ y)
probe = np.column_stack([np.ones(len(test_idx)), gm.values[test_idx]]) @ beta
labels = np.array([metas[i].response for i in test_idx])
print(f"ridge-probe reference AUROC: {auroc(probe, labels):.4f}")
