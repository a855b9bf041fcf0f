"""Worked examples, invariants, and finite-difference gradients of the
training objectives."""

import numpy as np
import pytest

from fourierdg.errors import ParameterError
from fourierdg.losses import (
    COS_EPS,
    asymmetric_loss,
    class_cosines,
    classification_loss,
    domain_adversarial_loss,
    total_loss,
)


def pairwise_asymmetric_loss(z, response):
    """Reference: the loss and gradient from the full b x b cosine matrix
    and anchor weights, as the clustering loss was first written."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(response)
    b = z.shape[0]
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y != 1)
    n_pos, n_neg = pos.size, neg.size
    if n_pos == 0 or (n_pos == 1 and n_neg == 0):
        return 0.0, np.zeros_like(z), True
    norms = np.maximum(np.linalg.norm(z, axis=1), COS_EPS)
    zh = z / norms[:, None]
    cos = zh @ zh.T
    weights = np.zeros((b, b))
    if n_pos > 1:
        weights[np.ix_(pos, pos)] = -1.0 / (n_pos * (n_pos - 1))
        weights[pos, pos] = 0.0
    if n_neg > 0:
        weights[np.ix_(pos, neg)] = 1.0 / (n_pos * n_neg)
    loss = float(np.sum(weights * cos))
    sym = weights + weights.T
    grad = (sym @ zh - (sym * cos).sum(axis=1)[:, None] * zh) / norms[:, None]
    return loss, grad, False


def batch(b, n_pos, seed, d=9):
    rng = np.random.default_rng(seed)
    y = np.zeros(b, dtype=np.int64)
    y[rng.permutation(b)[:n_pos]] = 1
    return rng.standard_normal((b, d)), y


class TestAgainstPairwiseReference:
    B = 12

    def check(self, z, y):
        loss, grad, degenerate = asymmetric_loss(z, y)
        ref_loss, ref_grad, ref_degenerate = pairwise_asymmetric_loss(z, y)
        assert degenerate == ref_degenerate
        assert grad.shape == ref_grad.shape and grad.dtype == np.float64
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        # row by row: a row shorter than COS_EPS has a gradient ~1e12 times
        # the others'
        scale = np.abs(ref_grad).max(axis=1)
        assert (np.abs(grad - ref_grad).max(axis=1) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("n_pos", [1, 2, B - 1, B // 2])
    def test_sensitive_counts(self, n_pos):
        self.check(*batch(self.B, n_pos, seed=n_pos))

    def test_no_resistant_row(self):
        self.check(*batch(self.B, self.B, seed=20))

    @pytest.mark.parametrize("label", [1, 0])
    @pytest.mark.parametrize("size", [0.0, 1e-14])
    def test_row_shorter_than_cos_eps(self, label, size):
        z, y = batch(self.B, 5, seed=21)
        row = int(np.flatnonzero(y == label)[0])
        z[row] *= size
        assert np.linalg.norm(z[row]) < COS_EPS
        self.check(z, y)

    def test_float32_input(self):
        z, y = batch(self.B, 5, seed=22)
        self.check(z.astype(np.float32), y)

    def test_wide_batch(self):
        self.check(*batch(64, 30, seed=23, d=740))


class TestClassCosines:
    def test_loss_is_minus_first_plus_second(self):
        for seed in range(5):
            z, y = batch(10, 2 + seed, seed=30 + seed)
            pos, cross, _ = class_cosines(z, y)
            loss = asymmetric_loss(z, y)[0]
            assert loss == pytest.approx(-pos + cross, rel=1e-12, abs=1e-15)

    def test_pairwise_means(self):
        z, y = batch(8, 3, seed=40)
        zh = z / np.linalg.norm(z, axis=1)[:, None]
        cos = zh @ zh.T
        pos, neg = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
        off = ~np.eye(8, dtype=bool)
        expected = (
            cos[np.ix_(pos, pos)][off[np.ix_(pos, pos)]].mean(),
            cos[np.ix_(pos, neg)].mean(),
            cos[np.ix_(neg, neg)][off[np.ix_(neg, neg)]].mean(),
        )
        assert class_cosines(z, y) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("y, defined", [
        ([1, 0, 0], (False, True, True)),
        ([1, 1, 0], (True, True, False)),
        ([1, 1, 1], (True, False, False)),
        ([0, 0, 0], (False, False, True)),
        ([1], (False, False, False)),
    ])
    def test_nan_without_a_pair(self, y, defined):
        z = np.random.default_rng(41).standard_normal((len(y), 4))
        assert tuple(not np.isnan(c) for c in class_cosines(z, y)) == defined

    def test_row_scale_invariance(self):
        z, y = batch(9, 4, seed=42)
        base = class_cosines(z, y)
        for i, c in ((0, 2.5), (3, 17.0), (8, 1e-3)):
            scaled = z.copy()
            scaled[i] *= c
            assert class_cosines(scaled, y) == pytest.approx(base, rel=1e-12)


class TestAsymmetricLoss:
    def test_identical_positives_orthogonal_negative(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loss, _, degenerate = asymmetric_loss(z, [1, 1, 0])
        assert loss == pytest.approx(-1.0, abs=1e-9)
        assert not degenerate

    def test_negative_aligned_with_positives(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        loss, _, _ = asymmetric_loss(z, [1, 1, 0])
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_single_pair_cos45(self):
        z = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [np.sqrt(2)]])
        loss, _, _ = asymmetric_loss(z, [1, 0])
        assert loss == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_no_positive_anchor_degenerate(self):
        z = np.random.default_rng(0).standard_normal((4, 3))
        loss, grad, degenerate = asymmetric_loss(z, [0, 0, 0, 0])
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(z))
        assert degenerate

    def test_lone_positive_without_negatives_degenerate(self):
        z = np.random.default_rng(1).standard_normal((1, 3))
        loss, grad, degenerate = asymmetric_loss(z, [1])
        assert loss == 0.0 and degenerate
        assert np.array_equal(grad, np.zeros_like(z))

    def test_empty_positive_set_still_counts_negatives(self):
        # one anchor, no other positives: only the negative term remains
        z = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        loss, _, degenerate = asymmetric_loss(z, [1, 0, 0])
        assert loss == pytest.approx((0.0 + -1.0) / 2.0, abs=1e-12)
        assert not degenerate

    def test_range_on_random_batches(self):
        # the loss is a difference of two cosine means, so each part lies
        # in [-1, 1] and the total in [-2, 2]; the tighter naive [-1, 1]
        # bound is NOT valid (aligned positives plus anti-aligned
        # negatives push below -1, e.g. -1.32 below)
        rng = np.random.default_rng(2)
        seen_below_minus_one = False
        for _ in range(200):
            b = int(rng.integers(2, 12))
            z = rng.standard_normal((b, 6))
            y = rng.integers(0, 2, b)
            loss, _, _ = asymmetric_loss(z, y)
            assert -2.0 - 1e-12 <= loss <= 2.0 + 1e-12
            if loss < -1.0:
                seen_below_minus_one = True
        assert seen_below_minus_one

    def test_two_part_bound_tight_cases(self):
        # positive part alone reaches -1; adding aligned negatives adds +1
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert asymmetric_loss(z, [1, 1])[0] == pytest.approx(-1.0)
        z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        assert asymmetric_loss(z, [1, 1, 0])[0] == pytest.approx(-2.0)

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 4))
        y = np.array([1, 0, 1, 1, 0, 0])
        base, _, _ = asymmetric_loss(z, y)
        for i, c in ((0, 2.5), (1, 17.0), (4, 1e-3)):
            scaled = z.copy()
            scaled[i] *= c
            loss, _, _ = asymmetric_loss(scaled, y)
            assert abs(loss - base) < 1e-9

    def test_negative_permutation_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((7, 5))
        y = np.array([1, 0, 0, 1, 0, 0, 1])
        base, _, _ = asymmetric_loss(z, y)
        neg = np.flatnonzero(y == 0)
        permuted = z.copy()
        permuted[neg] = z[neg[::-1]]
        loss, _, _ = asymmetric_loss(permuted, y)
        assert abs(loss - base) < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((7, 5))
        y = np.array([1, 0, 1, 1, 0, 0, 1])
        _, grad, _ = asymmetric_loss(z0, y)
        h = 1e-6
        worst = 0.0
        for i in range(z0.shape[0]):
            for j in range(z0.shape[1]):
                zp, zm = z0.copy(), z0.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (asymmetric_loss(zp, y)[0] - asymmetric_loss(zm, y)[0]) / (2 * h)
                worst = max(worst, abs(fd - grad[i, j]) / max(1, abs(fd), abs(grad[i, j])))
        assert worst < 1e-4


class TestDomainAdversarialLoss:
    def test_uniform_logits_m2(self):
        loss, _ = domain_adversarial_loss(np.zeros((4, 2)), [0, 1, 0, 1])
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_uniform_logits_m4(self):
        loss, _ = domain_adversarial_loss(np.zeros((3, 4)), [0, 1, 2])
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_confident_correct(self):
        logits = np.zeros((1, 3))
        logits[0, 1] = 10.0
        loss, _ = domain_adversarial_loss(logits, [1])
        assert loss == pytest.approx(np.log(1.0 + 2.0 * np.exp(-10.0)), rel=1e-9)
        assert loss < 1e-4

    def test_invalid_domain_index(self):
        with pytest.raises(ParameterError, match=r"domain index out of range \[0, 3\)"):
            domain_adversarial_loss(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ParameterError, match=r"domain index out of range \[0, 3\)"):
            domain_adversarial_loss(np.zeros((2, 3)), [-1, 0])

    def test_single_class_logits_rejected(self):
        with pytest.raises(ParameterError):
            domain_adversarial_loss(np.zeros((2, 1)), [0, 0])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        logits0 = rng.standard_normal((5, 4))
        dom = np.array([0, 3, 1, 2, 0])
        _, grad = domain_adversarial_loss(logits0, dom)
        h = 1e-6
        for i in range(5):
            for j in range(4):
                lp, lm = logits0.copy(), logits0.copy()
                lp[i, j] += h
                lm[i, j] -= h
                fd = (
                    domain_adversarial_loss(lp, dom)[0]
                    - domain_adversarial_loss(lm, dom)[0]
                ) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-6


class TestClassificationLoss:
    def test_float32_certainty_is_finite(self):
        # the largest float32 logits, each on the wrong side
        big = np.finfo(np.float32).max
        loss, grad = classification_loss(np.array([big, -big], np.float32), [0, 1])
        assert loss == float(big)
        assert grad.dtype == np.float64 and list(grad) == [0.5, -0.5]

    def test_max_entropy(self):
        loss, _ = classification_loss([0.0, 0.0], [1, 0])
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_perfect_prediction(self):
        loss, _ = classification_loss([40.0, -40.0], [1, 0])
        assert 0.0 < loss <= 1e-11

    def test_scalar_oracle(self):
        # sigmoid(ln 9) = 0.9 and sigmoid(ln 0.25) = 0.2
        loss, _ = classification_loss([np.log(9), np.log(0.25)], [1, 0])
        assert loss == pytest.approx((-np.log(0.9) - np.log(0.8)) / 2, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        l0 = np.concatenate([rng.uniform(-5, 5, 6), [30.0, -30.0, 30.0, -30.0]])
        y = np.array([1, 0, 1, 0, 0, 1, 1, 0, 0, 1])
        _, grad = classification_loss(l0, y)
        h = 1e-6
        for i in range(l0.size):
            lp, lm = l0.copy(), l0.copy()
            lp[i] += h
            lm[i] -= h
            fd = (classification_loss(lp, y)[0] - classification_loss(lm, y)[0]) / (2 * h)
            assert abs(fd - grad[i]) / max(1, abs(fd)) < 1e-6


class TestTotalLoss:
    def test_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 3.0, 0.2).total == 0.0

    def test_scalar_oracle(self):
        breakdown = total_loss(-1.0, np.log(2), np.log(2), 1.0, 1.0)
        assert breakdown.total == pytest.approx(2 * np.log(2) - 1, abs=1e-12)

    def test_lambda1_zero_disables_clustering_term(self):
        breakdown = total_loss(0.37, 0.8, 0.4, 0.0, 2.0)
        assert breakdown.total == 0.8 + 2.0 * 0.4

    def test_exact_linearity(self):
        la, lv, lc = 0.3, 0.7, 0.2
        for l1 in (0.0, 0.5, 2.0):
            for l2 in (0.0, 1.0, 3.0):
                breakdown = total_loss(la, lv, lc, l1, l2)
                assert breakdown.total == lv + l1 * la + l2 * lc

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            total_loss(0.0, 0.0, 0.0, -1.0, 1.0)
        with pytest.raises(ParameterError):
            total_loss(0.0, 0.0, 0.0, 1.0, float("inf"))
