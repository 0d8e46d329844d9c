import math

import numpy as np
import pytest

from tiltrate import Channel, ValidationError, capacity_point, mutual_information
from tiltrate.errors import ChannelDegenerateError

from conftest import LN2, h2

BSC_RATE = 0.36806420716849706  # ln2 - h2(0.1)


def bsc(eps=0.1, q=0.5):
    return Channel([[1 - eps, eps], [eps, 1 - eps]], [q, 1 - q])


class TestChannel:
    def test_row_sums_checked(self):
        with pytest.raises(ValidationError):
            Channel([[0.9, 0.2], [0.1, 0.9]], [0.5, 0.5])

    def test_input_probs_checked(self):
        with pytest.raises(ValidationError, match="input_probs"):
            Channel([[0.9, 0.1], [0.1, 0.9]], [0.6, 0.6])

    def test_negative_transition(self):
        with pytest.raises(ValidationError):
            Channel([[1.1, -0.1], [0.1, 0.9]], [0.5, 0.5])


class TestCapacityPoint:
    def test_bsc_rate_and_force(self):
        pt = capacity_point(bsc())
        assert pt.rate == pytest.approx(BSC_RATE, abs=1e-12)
        assert abs(pt.s_star) == pytest.approx(1.0, abs=1e-9)
        assert pt.delta == pytest.approx(h2(0.1), abs=1e-12)

    def test_rate_equals_mutual_information(self):
        pt = capacity_point(bsc())
        assert pt.rate == pytest.approx(mutual_information(bsc()), abs=1e-12)

    def test_skewed_input(self):
        ch = bsc(0.2, 0.3)
        pt = capacity_point(ch)
        assert pt.rate == pytest.approx(mutual_information(ch), abs=1e-9)
        assert abs(pt.s_star) == pytest.approx(1.0, abs=1e-9)

    def test_identity_channel(self):
        ch = Channel([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        pt = capacity_point(ch)
        assert pt.rate == pytest.approx(LN2, abs=1e-12)
        assert pt.delta == pytest.approx(0.0, abs=1e-14)
        assert pt.s_star == 0.0

    def test_rows_a_hair_from_the_identity_keep_the_unit_force(self):
        # the budget H(X | Xhat), about 5e-19, sits in the end band of the floor: a root solve
        # stopped there and reported the force 0.0, as for rows that are one value each
        ch = Channel([[1 - 1e-20, 1e-20], [1e-20, 1 - 1e-20]], [0.5, 0.5])
        pt = capacity_point(ch)
        assert pt.s_star == -1.0
        assert pt.rate == 0.6931471805599453

    def test_useless_channel(self):
        # output independent of input: rate must vanish
        ch = Channel([[0.6, 0.4], [0.6, 0.4]], [0.3, 0.7])
        pt = capacity_point(ch)
        assert pt.rate == pytest.approx(0.0, abs=1e-12)
        assert mutual_information(ch) == pytest.approx(0.0, abs=1e-14)

    def test_partial_zero_entries(self):
        # hand-checked: Z-style channel with one deterministic row
        ch = Channel([[1.0, 0.0], [0.5, 0.5]], [0.5, 0.5])
        pt = capacity_point(ch)
        assert pt.rate == pytest.approx(0.21576155433883567, abs=1e-12)
        assert pt.rate == pytest.approx(mutual_information(ch), abs=1e-12)
        assert abs(pt.s_star) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("w, q", [
        ([[0.15426497355800592, 0.845735026441994], [0.15422672634378776, 0.8457732736562122]],
         [0.2615822124414016, 0.7384177875585983]),
        ([[0.2583064318706405, 0.7416935681293595], [0.2583572829221275, 0.7416427170778724]],
         [0.5740555687680142, 0.4259444312319858]),
        ([[0.5088153768293618, 0.4911846231706381], [0.5089344656245769, 0.49106553437542316]],
         [0.8985467398557794, 0.1014532601442206]),
    ])
    def test_rows_that_nearly_agree_keep_the_unit_slope(self, w, q):
        # the budget H(X | Xhat) is about 0.5 and the table's floor about as large, while their
        # gap is about 1e-4: a budget formed as their difference put s* off -1 by 1.6e-8 to 1.9e-8
        ch = Channel(w, q)
        pt = capacity_point(ch)
        assert abs(pt.s_star + 1.0) <= 1e-11
        assert pt.rate == pytest.approx(mutual_information(ch), rel=1e-9, abs=1e-15)

    def test_dead_output_letter_rejected(self):
        ch = Channel([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
        with pytest.raises(ChannelDegenerateError):
            capacity_point(ch)

    def test_random_channels_match_mutual_information(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 5))
            j = int(rng.integers(2, 5))
            w = rng.random((k, j)) + 0.05
            w /= w.sum(axis=1, keepdims=True)
            q = rng.random(k) + 0.1
            q /= q.sum()
            ch = Channel(w, q)
            pt = capacity_point(ch)
            assert pt.rate == pytest.approx(mutual_information(ch), abs=1e-9)
            assert abs(pt.s_star) == pytest.approx(1.0, abs=1e-9)


def entropy(q) -> float:
    """H(q) in nats, with 0 ln 0 = 0."""
    return -sum(x * math.log(x) for x in q if x > 0.0)


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("q0", [0.5, 0.2, 0.77, 1e-3])
class TestClosedForms:
    def test_binary_erasure_channel(self, eps, q0):
        # outputs 0, erasure, 1: each output row is one value on its support, so the rate does not
        # depend on the force and s_star is 0; H(X | Xhat) is h(eps) at every input law
        q = [q0, 1.0 - q0]
        pt = capacity_point(Channel([[1.0 - eps, eps, 0.0], [0.0, eps, 1.0 - eps]], q))
        assert pt.rate == pytest.approx((1.0 - eps) * entropy(q), rel=1e-12, abs=0.0)
        assert pt.delta == pytest.approx(h2(eps), rel=1e-15, abs=0.0)
        assert pt.s_star == 0.0

    def test_z_channel(self, eps, q0):
        # W(0|0) = 1 and W(1|1) = 1 - eps: output 0's row spans 0 to -ln eps, so s_star is -1
        q1 = 1.0 - q0
        pt = capacity_point(Channel([[1.0, 0.0], [eps, 1.0 - eps]], [q0, q1]))
        assert pt.rate == pytest.approx(h2(q1 * (1.0 - eps)) - q1 * h2(eps), rel=1e-12, abs=0.0)
        assert pt.delta == pytest.approx(q1 * h2(eps), rel=1e-15, abs=0.0)
        assert pt.s_star == -1.0


def channels_with_zero_transitions(n: int = 300):
    """``n`` channels with k and m in 2-6, Dirichlet rows with each entry zeroed with probability 0.3,
    0.1 added to one entry per row and renormalised, and a Dirichlet input law; a draw with a dead
    output letter is skipped."""
    rng = np.random.default_rng(4)
    while n:
        k, m = rng.integers(2, 7, size=2)
        w = rng.dirichlet(np.ones(m), size=k)
        w[rng.random((k, m)) < 0.3] = 0.0
        w[np.arange(k), rng.integers(m, size=k)] += 0.1
        w /= w.sum(axis=1, keepdims=True)
        q = rng.dirichlet(np.ones(k))
        if np.all(q @ w > 0.0):
            n -= 1
            yield w, q


def test_drawn_channels_with_zero_transitions():
    # the budget and H(X | Xhat) are the kernel's tilted mean at force -1: each within 1e-15 of the
    # direct sum -sum q W ln W, and the rate within 1e-13 of the direct mutual information
    for w, q in channels_with_zero_transitions():
        ch = Channel(w, q)
        pt = capacity_point(ch)
        logs = np.log(w, out=np.zeros_like(w), where=w > 0.0)
        direct = -float((q[:, None] * w * logs).sum())
        assert abs(pt.delta - direct) <= 1e-15 * direct
        info = mutual_information(ch)
        assert abs(pt.rate - info) <= 1e-13 * info


class TestMutualInformation:
    def test_bsc_closed_form(self):
        assert mutual_information(bsc()) == pytest.approx(LN2 - h2(0.1), abs=1e-14)

    def test_nonnegative(self, rng):
        for _ in range(20):
            w = rng.random((3, 3)) + 0.01
            w /= w.sum(axis=1, keepdims=True)
            q = rng.random(3) + 0.1
            q /= q.sum()
            assert mutual_information(Channel(w, q)) >= -1e-14
