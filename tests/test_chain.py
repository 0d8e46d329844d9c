import math

import numpy as np
import pytest

from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    ValidationError,
    distortion_at_force,
    entropy_at_energy,
    equilibrium_force,
    expected_length,
    force_at_level,
    from_rd_problem,
    gibbs_free_energy,
    protocol_work,
    protocol_work_bounds,
    quasistatic_work,
)
from tiltrate.chain import array_lengths, length_variance
from tiltrate.errors import EnergyInfeasibleError, LengthInfeasibleError, LevelInfeasibleError, ScheduleInvalidError

from conftest import LN2, LN3, h2, random_problem


def two_state(beta=1.0):
    """One array, states of length 0 and 1 with equal rest energies."""
    arr = ElementArray([0.0, 1.0], [LN2 / beta, LN2 / beta], 1.0)
    return ChainSystem(arrays=(arr,), beta=beta)


class TestConstruction:
    def test_fraction_sum_checked(self):
        a = ElementArray([0.0, 1.0], [0.0, 0.0], 0.6)
        with pytest.raises(ValidationError):
            ChainSystem(arrays=(a, a))

    def test_mismatched_state_vectors(self):
        with pytest.raises(ValidationError):
            ElementArray([0.0, 1.0], [0.0], 1.0)

    def test_temperature(self):
        sys1 = two_state(beta=2.0)
        assert sys1.temperature == pytest.approx(0.5)
        sys2 = ChainSystem(arrays=two_state().arrays, beta=0.5, boltzmann_k=2.0)
        assert sys2.temperature == pytest.approx(1.0)

    def test_from_rd_problem_mapping(self, bss):
        system = from_rd_problem(bss, beta=2.0)
        assert len(system.arrays) == 2
        for i, arr in enumerate(system.arrays):
            np.testing.assert_allclose(arr.state_lengths, bss.distortion[i])
            np.testing.assert_allclose(arr.state_energies, -np.log(bss.coding_probs) / 2.0)
            assert arr.fraction == pytest.approx(bss.source_probs[i])

    def test_mapped_zero_force_free_energy_vanishes(self, bss):
        # -ln Q / beta energies make each zero-force partition sum exactly 1
        system = from_rd_problem(bss, beta=1.7)
        assert gibbs_free_energy(system, 0.0) == pytest.approx(0.0, abs=1e-14)


class TestEquilibrium:
    def test_two_state_midpoint(self):
        system = two_state()
        assert expected_length(system, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_force_for_quarter_length(self):
        # e^{beta lam} / (1 + e^{beta lam}) = 1/4  =>  beta lam = -ln 3
        for beta in (1.0, 2.0):
            system = two_state(beta=beta)
            lam = equilibrium_force(system, 0.25)
            assert beta * lam == pytest.approx(-LN3, abs=1e-8)

    def test_length_outside_range(self):
        system = two_state()
        with pytest.raises(LengthInfeasibleError):
            equilibrium_force(system, 1.2)
        with pytest.raises(LengthInfeasibleError):
            equilibrium_force(system, 0.0)  # endpoint needs infinite force

    @pytest.mark.parametrize("length", [0.5, 1e-3, 0.999])
    def test_a_state_out_of_reach_at_zero_force(self, length):
        # at force 0 the long state's weight e^-1000 underflows, so the mean length has no slope
        # there; the force is 1000 + ln(L / (1 - L)), and mirrored energies mirror it
        want = 1000.0 + math.log(length / (1.0 - length))
        system = ChainSystem(arrays=(ElementArray([0.0, 1.0], [0.0, 1000.0], 1.0),), beta=1.0)
        mirrored = ChainSystem(arrays=(ElementArray([0.0, 1.0], [1000.0, 0.0], 1.0),), beta=1.0)
        assert equilibrium_force(system, length) == pytest.approx(want, rel=1e-9)
        assert equilibrium_force(mirrored, 1.0 - length) == pytest.approx(-want, rel=1e-9)

    def test_susceptibility_identity(self):
        # dY/dlam equals beta times the length variance
        system = two_state(beta=1.6)
        lam, h = -0.8, 1e-6
        fd = (expected_length(system, lam + h) - expected_length(system, lam - h)) / (2 * h)
        assert fd == pytest.approx(1.6 * length_variance(system, lam), abs=1e-7)

    def test_ragged_arrays(self):
        # arrays with 2 and 3 states share one padded table; each must still
        # see only its own states
        short = ElementArray([0.0, 1.0], [0.0, 0.4], 0.4)
        long = ElementArray([0.0, 0.5, 2.0], [0.1, 0.3, 0.0], 0.6)
        system = ChainSystem(arrays=(short, long), beta=1.5)
        lam = -0.7
        log_z, means, variances = [], [], []
        for arr in (short, long):
            w = np.exp(-1.5 * (arr.state_energies - lam * arr.state_lengths))
            m = float(w @ arr.state_lengths / w.sum())
            log_z.append(math.log(w.sum()))
            means.append(m)
            variances.append(float(w @ (arr.state_lengths - m) ** 2 / w.sum()))
        fractions = np.array([0.4, 0.6])
        np.testing.assert_allclose(array_lengths(system, lam), means, rtol=1e-14)
        assert expected_length(system, lam) == pytest.approx(fractions @ means, rel=1e-14)
        assert length_variance(system, lam) == pytest.approx(fractions @ variances, rel=1e-14)
        assert gibbs_free_energy(system, lam) == pytest.approx(-(fractions @ log_z) / 1.5, rel=1e-14)
        assert equilibrium_force(system, float(fractions @ means)) == pytest.approx(lam, rel=1e-9)

    def test_array_lengths_per_type(self, asym):
        system = from_rd_problem(asym)
        lengths = array_lengths(system, 0.0)
        np.testing.assert_allclose(lengths, [0.5, 1.0], atol=1e-14)


class TestQuasistaticWork:
    def test_matches_rate_over_beta(self, bss):
        s = math.log(1.0 / 3.0)
        for beta in (0.5, 1.0, 2.0):
            system = from_rd_problem(bss, beta=beta)
            work = quasistatic_work(system, s / beta)
            rate = distortion_at_force(bss, s).rate
            assert work == pytest.approx(rate / beta, abs=1e-10)

    def test_random_problems(self, rng):
        for _ in range(5):
            problem = random_problem(rng)
            beta = float(rng.uniform(0.5, 3.0))
            s = float(-rng.uniform(0.2, 2.5))
            system = from_rd_problem(problem, beta=beta)
            work = quasistatic_work(system, s / beta)
            rate = distortion_at_force(problem, s).rate
            assert work == pytest.approx(rate / beta, abs=2e-8)

    def test_zero_sweep(self, bss):
        assert quasistatic_work(from_rd_problem(bss), 0.0) == 0.0

    @pytest.mark.parametrize("lam", [math.nan, -math.inf, math.inf])
    def test_non_finite_final_force_rejected(self, bss, lam):
        with pytest.raises(ValidationError, match="lam_final must be finite"):
            quasistatic_work(from_rd_problem(bss), lam)


class TestProtocol:
    def test_brackets_quasistatic(self, bss):
        system = from_rd_problem(bss)
        lam = -1.1
        left, right = protocol_work_bounds(system, np.linspace(0.0, lam, 25))
        quasi = quasistatic_work(system, lam)
        assert left - 1e-12 <= quasi <= right + 1e-12

    def test_post_jump_sum_is_protocol_work(self, bss):
        system = from_rd_problem(bss)
        schedule = np.linspace(0.0, -0.9, 13)
        assert protocol_work(system, schedule) == protocol_work_bounds(system, schedule)[1]

    def test_refinement_converges_to_quasistatic(self, bss):
        system = from_rd_problem(bss)
        lam = -1.0
        quasi = quasistatic_work(system, lam)
        coarse = protocol_work(system, np.linspace(0.0, lam, 11))
        fine = protocol_work(system, np.linspace(0.0, lam, 101))
        assert abs(fine - quasi) < abs(coarse - quasi)
        assert fine == pytest.approx(quasi, abs=2e-3)

    def test_single_point_schedule(self, bss):
        assert protocol_work_bounds(from_rd_problem(bss), [0.0]) == (0.0, 0.0)

    def test_invalid_schedules(self, bss):
        system = from_rd_problem(bss)
        with pytest.raises(ScheduleInvalidError):
            protocol_work(system, [])
        with pytest.raises(ScheduleInvalidError):
            protocol_work(system, [-0.5, -1.0])
        with pytest.raises(ScheduleInvalidError):
            protocol_work(system, [0.0, -1.0, -0.5])
        with pytest.raises(ScheduleInvalidError):
            protocol_work(system, [0.0, math.nan])

    def test_flat_steps_allowed(self, bss):
        system = from_rd_problem(bss)
        left, right = protocol_work_bounds(system, [0.0, -0.5, -0.5, -1.0])
        assert left <= right


class TestEntropyAtEnergy:
    def test_nan_energy_rejected(self):
        with pytest.raises(ValidationError, match="not nan"):
            entropy_at_energy(FiniteDistribution([0.0, 1.0], [0.5, 0.5]), math.nan)

    def test_flat_two_level_midpoint(self):
        d = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        assert entropy_at_energy(d, 0.5) == pytest.approx(LN2, abs=1e-12)

    def test_flat_two_level_quarter(self):
        d = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        assert entropy_at_energy(d, 0.25) == pytest.approx(0.5623351446188083, abs=1e-9)
        assert entropy_at_energy(d, 0.25) == pytest.approx(h2(0.25), abs=1e-9)

    def test_unique_ground_state(self):
        d = FiniteDistribution([0.0, 1.0], [0.25, 0.75])
        assert entropy_at_energy(d, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_ground_state(self):
        # ground level occurs three times per single top level
        d = FiniteDistribution([0.0, 1.0], [0.75, 0.25])
        assert entropy_at_energy(d, 0.0) == pytest.approx(LN3, abs=1e-12)

    def test_saturates_above_flat_mean(self):
        d = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        for e in (0.5, 0.7, 1.0):
            assert entropy_at_energy(d, e) == pytest.approx(LN2, abs=1e-12)

    def test_monotone_below_flat_mean(self):
        d = FiniteDistribution([0.0, 0.4, 1.0], [0.25, 0.5, 0.25])
        es = np.linspace(0.01, d.mean, 20)
        ss = [entropy_at_energy(d, float(e)) for e in es]
        assert all(a <= b + 1e-10 for a, b in zip(ss, ss[1:]))

    def test_matches_grid_minimization(self):
        d = FiniteDistribution([0.0, 0.4, 1.1], [0.2, 0.5, 0.3])
        weights = d.probs / d.probs.min()
        betas = np.linspace(0.0, 60.0, 400001)
        for energy in (0.2, 0.35, 0.5):
            grid = np.min(
                betas * energy
                + np.log(np.exp(-np.outer(betas, d.values)) @ weights)
            )
            assert entropy_at_energy(d, energy) == pytest.approx(float(grid), abs=1e-7)

    def test_outside_spectrum(self):
        d = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(EnergyInfeasibleError):
            entropy_at_energy(d, -0.2)
        with pytest.raises(EnergyInfeasibleError):
            entropy_at_energy(d, 1.2)

    def test_top_end_band_is_the_legendre_band(self):
        # a far spectrum's top claims levels within _END_REL of its size too, as force_at_level's does:
        # a level that force_at_level puts on the end is no energy outside the spectrum
        d = FiniteDistribution([1e6, 1e6 + 1.0], [0.25, 0.75])
        on_end, beyond = 1e6 + 1.0 + 5e-10, 1e6 + 1.0 + 2e-9
        assert force_at_level(d, on_end).force == math.inf
        assert entropy_at_energy(d, on_end) == entropy_at_energy(d, d.max_value) == pytest.approx(math.log(4.0))
        with pytest.raises(LevelInfeasibleError):
            force_at_level(d, beyond)
        with pytest.raises(EnergyInfeasibleError):
            entropy_at_energy(d, beyond)
