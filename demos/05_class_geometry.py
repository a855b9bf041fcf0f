"""Measure the geometry the clustering loss asks for.

The asymmetric loss pulls drug-sensitive samples into one compact group
and pushes resistant samples away from them in frequency space.  Three
mean cosines of the trained features say whether it did: over sensitive
pairs (should be high), over sensitive-resistant pairs (should be low)
and over resistant pairs.  The loss on a batch is -first + second.  The
demo model is trained with the clustering weight lambda1 = 1 and again
with lambda1 = 0, and each model's cosines are taken on its training
rows in eval mode, beside its final training AUROC.
"""

from dataclasses import replace

import numpy as np

from fourierdg import fourier
from fourierdg.data import zscore_fit_apply
from fourierdg.losses import class_cosines
from fourierdg.model import encode
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig, fit

gm, metas = generate(SynthConfig(domains=4, genes=120, per_domain=60, seed=3))
gm_std, _ = zscore_fit_apply(gm)
labels = np.array([m.response for m in metas])
cfg = TrainConfig(
    lr=1e-3, batch_size=32, epochs=25, seed=1,
    enc_hidden=96, enc_out=48, disc_hidden=24,
)

print(f"{len(labels)} training rows, {cfg.epochs} epochs; mean cosines of the")
print("frequency features, taken in eval mode on the training rows:")
print()
print(f"{'lambda1':>7s}  {'sensitive':>9s}  {'sens-res':>8s}  {'resistant':>9s}  "
      f"{'-l_asy':>7s}  {'train AUROC':>11s}")
for lambda1 in (1.0, 0.0):
    params, logs = fit(gm_std, metas, replace(cfg, lambda1=lambda1))
    z = fourier.project(encode(gm_std.values, params, "eval"), params.basis)
    pos, cross, neg = class_cosines(z, labels)
    print(f"{lambda1:7.1f}  {pos:9.3f}  {cross:8.3f}  {neg:9.3f}  "
          f"{pos - cross:7.3f}  {logs[-1].train_auc:11.3f}")
print()
print("-l_asy = sensitive - sens-res is the gap the clustering loss widens.")
