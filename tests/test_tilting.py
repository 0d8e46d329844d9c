import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tiltrate.tilting
from tiltrate import (
    FiniteDistribution,
    ValidationError,
    force_at_level,
    kl_free_energy_gap,
    log_mgf,
    mean_via_integral,
    rate_at_force,
    rate_work_integral,
    riemann_sandwich,
    tilt,
)
from tiltrate.chain import ChainSystem, ElementArray, _table
from tiltrate.errors import LevelInfeasibleError, PartitionInvalidError, SupportMismatchError
from tiltrate.tilting import _BLOCK_ENTRIES, TiltReport, _at_origin, _exact_dot, _legendre, _pair

from conftest import LN2, h2, random_dist, raw_table


def coin():
    return FiniteDistribution([0.0, 1.0], [0.5, 0.5])


class TestFiniteDistribution:
    def test_sorting_and_moments(self):
        d = FiniteDistribution([2.0, 0.5, 1.0], [0.2, 0.5, 0.3])
        assert list(d.values) == [0.5, 1.0, 2.0]
        assert d.mean == pytest.approx(0.5 * 0.5 + 1.0 * 0.3 + 2.0 * 0.2)

    def test_zero_probabilities_dropped(self):
        d = FiniteDistribution([1.0, 5.0, 9.0], [0.5, 0.0, 0.5])
        assert d.size == 2
        assert d.max_value == 9.0

    def test_duplicate_values_merged(self):
        d = FiniteDistribution([1.0, 1.0 + 1e-15, 3.0], [0.25, 0.25, 0.5])
        assert d.size == 2
        assert d.probs[0] == pytest.approx(0.5)

    def test_merging_is_relative_to_the_span(self):
        d = FiniteDistribution([0.0, 1e-12, 3e-12], [0.25, 0.25, 0.5])
        assert d.size == 3

    def test_a_run_of_close_values_merges_at_its_least(self):
        d = FiniteDistribution([1.2e-12, 0.0, 1.0, 0.6e-12], [0.25, 0.25, 0.25, 0.25])
        assert list(d.values) == [0.0, 1.0]
        np.testing.assert_allclose(d.probs, [0.75, 0.25])

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValidationError):
            FiniteDistribution([0.0, 1.0], [0.7, 0.7])
        with pytest.raises(ValidationError):
            FiniteDistribution([0.0, 1.0], [-0.2, 1.2])
        with pytest.raises(ValidationError):
            FiniteDistribution([0.0, math.inf], [0.5, 0.5])
        with pytest.raises(ValidationError):
            FiniteDistribution([], [])

    def test_immutable(self):
        d = coin()
        with pytest.raises(ValueError):
            d.values[0] = 7.0

    def test_variance(self):
        assert coin().variance == pytest.approx(0.25)


class TestLogMgf:
    def test_zero_force(self):
        assert log_mgf(coin(), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        # half + half * e^s
        s = -1.3
        assert log_mgf(coin(), s) == pytest.approx(math.log(0.5 + 0.5 * math.exp(s)))

    def test_extreme_force_no_overflow(self):
        d = FiniteDistribution([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        assert log_mgf(d, 900.0) == pytest.approx(2.0 * 900.0 + math.log(0.25), rel=1e-12)
        assert log_mgf(d, -900.0) == pytest.approx(math.log(0.25), rel=1e-9)

    def test_a_far_row_whose_log_partition_stays_finite(self):
        # s * start passes 2^1021, so the move back from origin is checked, and it is finite
        d = FiniteDistribution([1e300, 2e300], [0.5, 0.5])
        assert log_mgf(d, -1e8) == -1e308
        assert tilt(d, -1e8).log_mgf == -1e308

    def test_convex_in_force(self, rng):
        d = random_dist(rng)
        ss = np.linspace(-6.0, 6.0, 25)
        vals = [log_mgf(d, s) for s in ss]
        for i in range(1, len(ss) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-12


class TestTilt:
    def test_quarter_coin(self):
        rep = tilt(coin(), math.log(1.0 / 3.0))
        assert rep.mean == pytest.approx(0.25, abs=1e-14)
        assert rep.variance == pytest.approx(0.1875, abs=1e-14)

    def test_zero_force_is_identity(self, rng):
        d = random_dist(rng)
        rep = tilt(d, 0.0)
        assert rep.mean == pytest.approx(d.mean, abs=1e-13)
        np.testing.assert_allclose(rep.tilted.probs, d.probs, atol=1e-14)

    def test_tilted_is_built_on_read(self):
        rep = tilt(coin(), math.log(1.0 / 3.0))
        assert "tilted" not in vars(rep)
        np.testing.assert_allclose(rep.tilted.probs, [0.75, 0.25], atol=1e-15)

    def test_reports_are_ordinary_records(self, rng):
        # tilt skips the generated __init__; its report must be the record that __init__ builds
        d = random_dist(rng)
        rep = tilt(d, -0.7)
        built = TiltReport(s=rep.s, log_mgf=rep.log_mgf, mean=rep.mean, variance=rep.variance, dist=d)
        assert list(vars(rep)) == list(vars(built))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.mean = 0.0
        moved = dataclasses.replace(rep, s=0.0)
        assert (moved.s, moved.mean, moved.dist) == (0.0, rep.mean, d)
        assert rep.tilted is rep.tilted
        assert np.array_equal(rep.tilted.probs, built.tilted.probs)
        assert list(vars(rep)) == list(vars(built))

    def test_mean_decreases_with_force(self, rng):
        d = random_dist(rng)
        means = [tilt(d, s).mean for s in np.linspace(-8.0, 8.0, 33)]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    @given(st.floats(-40.0, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_mean_stays_inside_support(self, s):
        d = FiniteDistribution([0.0, 0.3, 1.7], [0.3, 0.4, 0.3])
        rep = tilt(d, s)
        assert d.min_value - 1e-12 <= rep.mean <= d.max_value + 1e-12
        assert rep.variance >= -1e-14


class TestRateAtForce:
    def test_quarter_coin_rate(self):
        res = rate_at_force(coin(), math.log(1.0 / 3.0))
        assert res.level == pytest.approx(0.25, abs=1e-14)
        assert res.rate == pytest.approx(LN2 - h2(0.25), abs=1e-12)
        assert res.rate == pytest.approx(0.13081203594113698, abs=1e-12)

    def test_zero_force_zero_rate(self, rng):
        d = random_dist(rng)
        res = rate_at_force(d, 0.0)
        assert res.rate == pytest.approx(0.0, abs=1e-13)
        assert res.level == pytest.approx(d.mean, abs=1e-13)

    def test_rate_nonnegative(self, rng):
        d = random_dist(rng)
        for s in np.linspace(-10.0, 10.0, 41):
            assert rate_at_force(d, s).rate >= 0.0


class TestForceAtLevel:
    def test_quarter_coin(self):
        res = force_at_level(coin(), 0.25)
        assert res.force == pytest.approx(math.log(1.0 / 3.0), abs=1e-9)
        assert res.rate == pytest.approx(0.13081203594113698, abs=1e-10)

    def test_nan_level_rejected(self):
        with pytest.raises(ValidationError, match="not nan"):
            force_at_level(coin(), math.nan)

    def test_level_at_mean_gives_zero(self):
        res = force_at_level(coin(), 0.5)
        assert res.force == pytest.approx(0.0, abs=1e-12)
        assert res.rate == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_levels(self):
        d = FiniteDistribution([0.0, 1.0], [0.25, 0.75])
        res = force_at_level(d, 0.0)
        assert res.force == -math.inf
        assert res.rate == pytest.approx(-math.log(0.25), abs=1e-12)
        res = force_at_level(d, 1.0)
        assert res.force == math.inf
        assert res.rate == pytest.approx(-math.log(0.75), abs=1e-12)

    def test_outside_support_raises(self):
        with pytest.raises(LevelInfeasibleError):
            force_at_level(coin(), -0.05)
        with pytest.raises(LevelInfeasibleError):
            force_at_level(coin(), 1.05)

    def test_point_mass(self):
        d = FiniteDistribution([0.7], [1.0])
        res = force_at_level(d, 0.7)
        assert res.rate == 0.0
        with pytest.raises(LevelInfeasibleError):
            force_at_level(d, 0.71)

    def test_point_mass_at_small_scale(self):
        d = FiniteDistribution([1e-12], [1.0])
        assert force_at_level(d, 1e-12).rate == 0.0
        with pytest.raises(LevelInfeasibleError, match="point mass"):
            force_at_level(d, 1.5e-12)

    @given(st.floats(-9.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_force_level_force(self, s):
        d = FiniteDistribution([0.0, 0.6, 2.0], [0.3, 0.3, 0.4])
        level = tilt(d, s).mean
        rec = force_at_level(d, level, tol=1e-14)
        assert rec.force == pytest.approx(s, abs=1e-6)


class TestIntegralRoutes:
    def test_rate_work_integral_matches_legendre(self, rng):
        for _ in range(10):
            d = random_dist(rng)
            s = float(-rng.uniform(0.1, 4.0))
            direct = rate_at_force(d, s).rate
            via_work = rate_work_integral(d, s)
            assert via_work == pytest.approx(direct, abs=1e-8)

    def test_positive_force_side(self, rng):
        d = random_dist(rng)
        s = 1.7
        assert rate_work_integral(d, s) == pytest.approx(rate_at_force(d, s).rate, abs=1e-8)

    def test_mean_via_integral(self, rng):
        for _ in range(10):
            d = random_dist(rng)
            s = float(rng.uniform(-4.0, 4.0))
            assert mean_via_integral(d, s) == pytest.approx(tilt(d, s).mean, abs=1e-8)


class TestRiemannSandwich:
    def test_brackets_the_rate(self):
        d = coin()
        s = -1.5
        low, high = riemann_sandwich(d, np.linspace(0.0, s, 101))
        exact = rate_at_force(d, s).rate
        assert low - 1e-12 <= exact <= high + 1e-12

    def test_refinement_halves_gap(self):
        d = coin()
        s = -1.5
        l1, h1 = riemann_sandwich(d, np.linspace(0.0, s, 501))
        l2, h2_ = riemann_sandwich(d, np.linspace(0.0, s, 1001))
        assert (h2_ - l2) <= 0.51 * (h1 - l1)

    def test_single_point_partition(self):
        assert riemann_sandwich(coin(), np.array([0.0])) == (0.0, 0.0)

    def test_bad_partitions(self):
        d = coin()
        with pytest.raises(PartitionInvalidError):
            riemann_sandwich(d, np.array([]))
        with pytest.raises(PartitionInvalidError):
            riemann_sandwich(d, np.array([-0.5, -1.0]))  # must start at 0
        with pytest.raises(PartitionInvalidError):
            riemann_sandwich(d, np.array([0.0, -1.0, -0.5]))  # not monotone
        with pytest.raises(PartitionInvalidError):
            riemann_sandwich(d, np.array([0.0, math.nan]))


def around_one_block(entries_per_force: int) -> list[int]:
    """Force counts just below, at and just above one block of the kernel;
    a force whose table fills a block is a block of its own."""
    step = max(_BLOCK_ENTRIES // entries_per_force, 1)
    return [n for n in (step - 1, step, step + 1) if n >= 1]


class TestForceBatchedKernel:
    """The kernel at a 1-D array of forces equals one-force calls stacked, bit for bit."""

    @staticmethod
    def assert_stacked(log_weights, values, forces, counts=None):
        """Batched calls on the first n forces, for each n of ``counts`` (all by
        default), against the one-force calls stacked."""
        table = raw_table(log_weights, values)
        one_force = (table.grid(float(s)) for s in forces)
        stacked = [np.stack(column) for column in zip(*one_force)]
        for n in counts or [forces.size]:
            batched = table.grid(forces[:n])
            assert len(batched) == len(stacked)
            for out, ref in zip(batched, stacked):
                assert out.shape == ref[:n].shape
                assert np.array_equal(out, ref[:n])

    @pytest.mark.parametrize("k", [2, 64, 512])
    def test_square_tables_around_one_block(self, rng, k):
        values = rng.random((k, k))
        log_weights = np.log(rng.dirichlet(np.ones(k)))[None, :]
        counts = around_one_block(k * k)
        self.assert_stacked(log_weights, values, -rng.uniform(0.0, 3.0, counts[-1]), counts)

    @pytest.mark.parametrize("k", [64, 512])
    def test_one_row_around_one_block(self, rng, k):
        values = rng.random((1, k)) * 2.0
        log_weights = np.log(rng.dirichlet(np.ones(k)))[None, :]
        counts = around_one_block(k)
        self.assert_stacked(log_weights, values, rng.uniform(-3.0, 3.0, counts[-1]), counts)

    def test_ragged_rows_padded_with_minus_inf(self, rng):
        sizes = [2, 7, 1, 5, 64, 3]
        fractions = rng.dirichlet(np.ones(len(sizes)))
        system = ChainSystem(
            arrays=tuple(
                ElementArray(rng.random(m), rng.random(m), float(f)) for m, f in zip(sizes, fractions)
            ),
            beta=1.3,
        )
        _, log_w, lengths, *_ = _table(system)
        assert np.isneginf(log_w).any()
        counts = around_one_block(lengths.size)
        self.assert_stacked(log_w, lengths, -rng.uniform(0.0, 4.0, counts[-1]), counts)

    def test_tilts_near_700(self, rng):
        values = rng.random((3, 16))
        values[:, 0] = 1.0
        log_weights = np.log(rng.dirichlet(np.ones(16), size=3))
        forces = np.concatenate([-rng.uniform(690.0, 710.0, 20), rng.uniform(690.0, 710.0, 20)])
        self.assert_stacked(log_weights, values, forces)
        log_z, means, _ = raw_table(log_weights, values).grid(forces)
        assert np.all(np.isfinite(log_z)) and np.all(np.isfinite(means))


def large_table(rng, shape):
    """(log_weights, values) larger than one block of the kernel: 65 rows of 512 entries under
    one shared row of log-weights, or 80 ragged rows of 1 to 600 entries (one full) padded with
    -inf log-weights of their own."""
    if shape == "square":
        return np.log(rng.dirichlet(np.ones(512)))[None, :], rng.random((65, 512))
    lengths = rng.integers(1, 601, size=80)
    lengths[0] = 600
    log_weights = np.log(rng.random((80, 600)))
    log_weights[np.arange(600)[None, :] >= lengths[:, None]] = -math.inf
    return log_weights, rng.random((80, 600))


class TestRowBlockedGrids:
    """A force grid on a table larger than one block goes through one force and a slice of rows
    at a time, and equals the unblocked kernel's one-force calls stacked, bit for bit."""

    @staticmethod
    def assert_stacked(batched, unblocked, forces):
        stacked = [np.stack(column) for column in zip(*(unblocked(float(s)) for s in forces))]
        assert len(batched) == len(stacked)
        for out, ref in zip(batched, stacked):
            assert out.shape == ref.shape
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("shape", ["square", "ragged"])
    def test_pair(self, rng, shape):
        log_weights, a = large_table(rng, shape)
        b = 3.0 * rng.random(a.shape) - 1.0
        assert a.size > _BLOCK_ENTRIES
        forces = -rng.uniform(0.0, 3.0, 3)
        table, other = raw_table(log_weights, a), raw_table(log_weights, b)
        for s_b in (0.0, -0.7):
            self.assert_stacked(table.pair(other, forces, s_b), lambda s: _pair(log_weights, a, b, s, s_b), forces)
            # the pair at one force is row-blocked too
            self.assert_stacked([x[None] for x in table.pair(other, float(forces[0]), s_b)],
                                lambda s: _pair(log_weights, a, b, s, s_b), forces[:1])


def exact(weights, starts) -> float:
    return float(sum(Fraction(w) * Fraction(x) for w, x in zip(weights, starts)))


far_starts = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-12.0, 12.0))


class TestTableFloor:
    @given(st.lists(st.tuples(st.just(0.0) | st.floats(1e-9, 1.0), far_starts), min_size=1, max_size=64))
    # starts past about 1e300, whose Veltkamp split overflows: the sum once came out nan
    @example([(0.5, -1e308), (0.5, 1e308)])
    @example([(0.3, 1.7e308), (0.7, -1.2e308)])
    def test_exact_dot_is_the_exact_sum_rounded_once(self, pairs):
        w, x = (np.array(column) for column in zip(*pairs))
        assert _exact_dot(w, x) == exact(w, x)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    @settings(max_examples=60)
    def test_far_rows_are_floored_exactly_and_near_rows_by_dot(self, seed, k):
        # rows that start far from 0, of either sign, take the exact sum; rows whose starts sum
        # within the span keep np.dot's bits (here each row starts below 0.1 and spans 0.9 to 1, and
        # each shift is 10 or more)
        rng = np.random.default_rng(seed)
        w, d = rng.dirichlet(np.ones(k)), rng.random((k, 3)) * [0.1, 0.0, 1.0] + [0.0, 1.0, 0.0]
        shifts = np.round(rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(1.0, 10.0, size=k))
        near, far = (_at_origin(w, np.zeros((1, 3)), d + c[:, None]) for c in (0.0 * shifts, shifts))
        assert near.floor() == float(np.dot(w, near.starts))
        assert float(np.dot(w, np.abs(far.starts))) > far.span
        assert far.floor() == exact(w, far.starts)

    @given(st.floats(1e-3, 1.0), far_starts, st.floats(0.0, 1e3))
    def test_one_row_is_floored_exactly_by_dot(self, w, start, width):
        # one product, rounded once: np.dot's floor is the exact one, whichever side of its range
        # the row starts
        table = _at_origin(np.array([w]), np.zeros((1, 2)), np.array([[start, start + width]]))
        assert table.floor() == exact([w], table.starts)

    def test_one_row_takes_no_exact_sum(self, monkeypatch):
        # a row far from 0 (start 1e6, range 1) once took _exact_dot on every read of its floor
        def refused(*args):
            raise AssertionError("a one-row floor took the exact sum")

        monkeypatch.setattr(tiltrate.tilting, "_exact_dot", refused)
        dist = FiniteDistribution([1e6, 1e6 + 1.0], [0.25, 0.75])
        assert dist._table.floor() == 1e6
        result = force_at_level(dist, 1e6 + 0.5)  # at origin the mean 1/2 needs e^s = 1/3
        assert result.force == pytest.approx(-math.log(3.0), rel=1e-9)
        assert result.rate == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
        table = _at_origin(np.array([1.0]), np.zeros((1, 2)), np.array([[-1e6, 1.0 - 1e6]]))
        assert table.floor() == -1e6

    def test_a_budget_at_origin_in_units_skips_the_floor(self):
        # capacity's budget is summed at origin and in units, so no digit is lost to the floor:
        # _legendre takes it as it is, and answers as for the same budget given as a raw level
        table = _at_origin(np.array([0.25, 0.75]), np.zeros((1, 2)), np.array([[5.0, 7.0], [-3.0, 2.0]]))
        assert table.span == 0.25 * 2.0 + 0.75 * 5.0 == table.unit
        floor = table.floor()
        in_units = _legendre(table, 0.5, 0.0, nonpositive=True, in_units=True)
        raw = _legendre(table, floor + 0.5 * table.span, 0.0, nonpositive=True)
        assert in_units[0] == pytest.approx(raw[0], rel=1e-13) and in_units[1] == pytest.approx(raw[1], rel=1e-13)


class TestKlFreeEnergyGap:
    def test_coin_vs_quarter_coin(self):
        p = coin()
        q = FiniteDistribution([0.0, 1.0], [0.75, 0.25])
        # D(q||p) = ln2 - h2(1/4)
        assert kl_free_energy_gap(q, p) == pytest.approx(0.13081203594113698, abs=1e-12)

    def test_identical_is_zero(self, rng):
        d = random_dist(rng)
        assert kl_free_energy_gap(d, d) == pytest.approx(0.0, abs=1e-13)

    def test_tilted_reaches_the_rate(self, rng):
        # the tilted law is the cheapest way to move the mean
        d = random_dist(rng)
        s = -1.2
        rep = tilt(d, s)
        gap = kl_free_energy_gap(rep.tilted, d)
        assert gap == pytest.approx(rate_at_force(d, s).rate, abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(20):
            d = random_dist(rng, size=4)
            probs = rng.random(4) + 0.05
            probs /= probs.sum()
            q = FiniteDistribution(d.values, probs)
            assert kl_free_energy_gap(q, d) >= -1e-13

    def test_near_ties_are_one_outcome_of_p(self):
        # FiniteDistribution merges p's values 0 and 1e-13 (within 1e-12 of its span) into one
        # outcome of mass 0.5, which q's value 0 is matched to: unmerged, q's mass there would be
        # priced against 0.25 alone, and the gap would read ln(2) / 2 = 0.347
        p = FiniteDistribution([0.0, 1e-13, 1.0], [0.25, 0.25, 0.5])
        q = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        assert kl_free_energy_gap(q, p) == 0.0

    def test_support_mismatch(self):
        p = coin()
        q = FiniteDistribution([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(SupportMismatchError):
            kl_free_energy_gap(q, p)

    def test_matches_a_per_value_sum(self, rng):
        for _ in range(20):
            p = random_dist(rng, size=5)
            keep = rng.random(5) < 0.6
            keep[0] = True
            probs = p.probs[keep] / p.probs[keep].sum()
            q = FiniteDistribution(p.values[keep], probs)
            want = sum(float(w * math.log(w / p.probs[list(p.values).index(v)])) for v, w in zip(q.values, q.probs))
            assert kl_free_energy_gap(q, p) == pytest.approx(want, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_support_mismatch_at_any_scale(self, scale):
        p = FiniteDistribution([0.0, scale], [0.5, 0.5])
        q = FiniteDistribution([0.0, 0.4 * scale], [0.5, 0.5])
        with pytest.raises(SupportMismatchError):
            kl_free_energy_gap(q, p)
