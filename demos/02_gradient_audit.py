"""Finite-difference audit of the hand-written backward passes.

Everything in this package backpropagates through code written by hand
(affine, batch-norm, dropout, the Fourier projection, both heads, and
the gradient reversal), so the whole chain is checked against central
finite differences on a reduced copy of the architecture.  The same
audit is available from the command line as `fourierdg gradcheck`.
"""

import time

import numpy as np

from fourierdg.losses import domain_adversarial_loss
from fourierdg.model import (
    ForwardTapes,
    GrlConfig,
    forward_full,
    gradient_suite,
    init_params,
)
from fourierdg.tensor_core import RngState

print("=== end-to-end gradient audit (reduced model) ===")
start = time.time()
err = gradient_suite()
print(f"max relative error vs central differences: {err:.3e}")
print(f"elapsed: {time.time() - start:.2f}s")

print()
print("=== what the reversal layer does to the adversarial gradient ===")
rng = RngState(5)
params = init_params(12, 3, rng, hidden=10, d=8, disc_hidden=6)
x = rng.normal((6, 12))
domains = np.array([0, 1, 2, 0, 1, 2])


def encoder_grads_from_adversary(grl):
    work = params.copy()
    tapes = ForwardTapes()
    _, _, logits = forward_full(x, work, grl, tapes)
    _, dlogits = domain_adversarial_loss(logits, domains)
    for t in work.trainables():
        t.zero_grad()
    tapes.encoder.backward(tapes.discriminator.backward(dlogits))
    return np.concatenate([t.grad.ravel() for t in work.encoder_trainables()])


plain = encoder_grads_from_adversary(None)
for coeff in (1.0, 0.5):
    reversed_ = encoder_grads_from_adversary(GrlConfig(coeff))
    print(
        f"coefficient {coeff}: encoder gradient == -{coeff} x unreversed gradient?",
        bool(np.array_equal(reversed_, -coeff * plain)),
    )
print("(the discriminator itself always receives the unreversed gradient,")
print(" so one optimizer step descends for the adversary and ascends for")
print(" the encoder: that is the whole min-max)")
