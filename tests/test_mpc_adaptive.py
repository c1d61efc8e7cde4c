"""Adaptive budget throttling on the faithful MPC path (DESIGN.md §13).

Covers the controller/estimator units, the driver integration
(trajectory rows, discarded attempts, certificate crosscheck, parity
with the per-record oracle cluster), and the two load-bearing claims
of the feature:

* at one shared absolute ``S`` the adaptive policy completes instances
  where the same cap budget held *fixed* dies on a SpaceViolation, and
* adaptive peak machine words grow sublinearly in n on the stress
  family (the throttle tracks the safety band, not the instance size).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import skew_frontier_instance, union_of_forests
from repro.mpc.adaptive import AdaptiveBudgetController, PeakHoldEstimator
from repro.mpc import SpaceViolation
from tests.mpc_reference import per_record_driver

EPS = 0.2
ALPHA = 0.5
S_TARGET = 16384
CAP = 6

_DECISIONS = {"init", "ramp", "hold", "throttle", "backoff", "fixed"}
_METRIC_KEYS = {
    "phase", "guess", "round_start", "rounds", "sample_budget", "decision",
    "attempts", "accepted", "predicted_peak_words", "observed_peak_words",
    "budget_words", "safety_fraction", "ball_count", "payload_words_p50",
    "payload_words_p95", "payload_words_p99", "payload_words_max",
    "words_moved", "routing_skew",
}


def _solve_skew(n, *, policy, safety_fraction=0.8):
    instance = skew_frontier_instance(n, seed=0)
    kwargs = dict(
        lam=4, mode="faithful", seed=0, sample_budget=CAP, alpha=ALPHA,
        block_override=1,
        space_slack=S_TARGET / instance.graph.n_vertices ** ALPHA,
        budget_policy=policy,
    )
    if policy == "adaptive":
        kwargs["safety_fraction"] = safety_fraction
    return solve_allocation_mpc(instance, EPS, **kwargs)


# ----------------------------------------------------------------------
# PeakHoldEstimator
# ----------------------------------------------------------------------
class TestPeakHoldEstimator:
    def test_no_prediction_before_first_observation(self):
        assert PeakHoldEstimator().predict(3) is None

    def test_hold_decays_and_is_replaced_by_fresh_peaks(self):
        est = PeakHoldEstimator(decay=0.5)
        est.observe(2, 1000)
        est.observe(2, 10)          # 10 < 500 (decayed hold): hold decays
        assert est.held_peak == pytest.approx(500.0)
        est.observe(2, 600)         # 600 >= 250: fresh peak takes over
        assert est.held_peak == pytest.approx(600.0)
        assert est.held_budget == 2

    def test_gamma_default_until_two_distinct_budgets(self):
        est = PeakHoldEstimator()
        est.observe(2, 100)
        est.observe(2, 120)
        assert est.gamma() == pytest.approx(1.5)

    def test_gamma_measured_from_distinct_budgets_and_clamped(self):
        est = PeakHoldEstimator()
        est.observe(1, 100)
        est.observe(2, 400)         # slope log4/log2 = 2, inside the clamp
        assert est.gamma() == pytest.approx(2.0)
        est2 = PeakHoldEstimator()
        est2.observe(1, 100)
        est2.observe(2, 100_000)    # raw slope ~10 → clamped to 3
        assert est2.gamma() == pytest.approx(3.0)
        est3 = PeakHoldEstimator()
        est3.observe(1, 100)
        est3.observe(2, 101)        # raw slope ~0.014 → clamped to 0.5
        assert est3.gamma() == pytest.approx(0.5)

    def test_predict_follows_power_law(self):
        est = PeakHoldEstimator()
        est.observe(1, 100)
        est.observe(2, 400)         # γ = 2 from these two points
        assert est.predict(4) == pytest.approx(400.0 * 4.0)


# ----------------------------------------------------------------------
# AdaptiveBudgetController
# ----------------------------------------------------------------------
class TestAdaptiveBudgetController:
    def _controller(self, **kw):
        defaults = dict(budget_words=1000, max_budget=8, safety_fraction=0.8)
        defaults.update(kw)
        return AdaptiveBudgetController(**defaults)

    def test_first_proposal_is_init_at_small_budget(self):
        budget, decision = self._controller().propose()
        assert (budget, decision) == (1, "init")

    def test_ramps_on_headroom(self):
        ctl = self._controller()
        ctl.propose()
        ctl.observe(1, 100)         # far below cap 800
        budget, decision = ctl.propose()
        assert decision == "ramp" and budget == 2

    def test_exploratory_ramp_despite_conservative_prior(self):
        # With one observation the γ=1.5 prior may predict over the cap
        # for any larger budget; the controller must still explore
        # upward (backoff makes an over-step recoverable).
        ctl = self._controller()
        ctl.propose()
        ctl.observe(1, 700)         # predict(2) = 700·2^1.5 ≈ 1980 > 800
        budget, decision = ctl.propose()
        assert decision == "ramp" and budget == 2

    def test_holds_once_a_higher_budget_is_known_too_heavy(self):
        ctl = self._controller()
        ctl.propose()
        ctl.observe(1, 700)
        ctl.propose()               # exploratory ramp to 2
        ctl.observe(2, 790)         # fits, but predict(4) over cap
        budget, decision = ctl.propose()
        assert decision == "ramp" and budget == 4   # 790 ≤ cap: keep ramping
        ctl.observe(4, 795)
        assert ctl.propose() == (8, "ramp")
        ctl.observe(8, 799)
        assert ctl.propose() == (8, "hold")         # at max_budget

    def test_throttles_before_predicted_violation(self):
        ctl = self._controller()
        ctl.propose()
        ctl.observe(1, 100)
        ctl.propose()               # ramp to 2
        ctl.observe(2, 900)         # over the 800 cap
        budget, decision = ctl.propose()
        assert decision == "throttle" and budget == 1

    def test_backoff_halves_and_pins_estimator_over_s(self):
        ctl = self._controller()
        ctl.propose()
        retry = ctl.backoff(4, peak_words=50)   # violation at budget 4
        assert retry == 2
        # The pin records ≥ S+1 for budget 4 even though the cluster
        # only counted 50 words before dying.
        assert (4, 1001) in ctl.estimator.history
        assert ctl.predicted_peak(4) is not None
        assert ctl.predicted_peak(4) > ctl.cap_words

    def test_backoff_at_budget_one_reports_genuine_violation(self):
        ctl = self._controller()
        ctl.propose()
        assert ctl.backoff(1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            self._controller(safety_fraction=0.0)
        with pytest.raises(ValueError):
            self._controller(ramp_factor=1.0)
        with pytest.raises(ValueError):
            self._controller(budget_words=0)


# ----------------------------------------------------------------------
# Driver integration: the frontier claim
# ----------------------------------------------------------------------
class TestAdaptiveFrontier:
    def test_fixed_budget_violates_where_adaptive_completes(self):
        # Same family, same absolute S, same cap budget: fixed dies,
        # adaptive completes — at a size well past the fixed frontier.
        with pytest.raises(SpaceViolation):
            _solve_skew(48, policy="fixed")
        result = _solve_skew(128, policy="adaptive")
        assert result.ledger.violations == []
        assert result.certificate is not None and result.certificate.mass_condition
        assert result.meta["certificate_crosscheck"] is True

    def test_adaptive_peaks_stay_sublinear_in_n(self):
        sizes = [64, 128, 256]
        peaks, verts = [], []
        for n in sizes:
            res = _solve_skew(n, policy="adaptive")
            assert res.ledger.peak_machine_words <= S_TARGET
            peaks.append(res.ledger.peak_machine_words)
            verts.append(skew_frontier_instance(n, seed=0).graph.n_vertices)
        slope = float(np.polyfit(np.log(verts), np.log(peaks), 1)[0])
        assert slope < 1.0, f"adaptive peak words grew superlinearly: {slope:.2f}"

    def test_genuine_violation_still_raises_after_backoff_exhausts(self):
        # At a small enough S even budget 1 overflows; the driver must
        # re-raise instead of looping.
        instance = union_of_forests(48, 48, 2, capacity=2, seed=3)
        with pytest.raises(SpaceViolation):
            solve_allocation_mpc(
                instance, EPS, lam=2, mode="faithful", seed=0,
                sample_budget=CAP, block_override=1, space_slack=96.0,
                certificate_cadence="per_guess", budget_policy="adaptive",
            )


# ----------------------------------------------------------------------
# Driver integration: trajectory auditability
# ----------------------------------------------------------------------
class TestTrajectory:
    def test_trajectory_rows_are_complete_and_within_bounds(self):
        result = _solve_skew(64, policy="adaptive")
        trajectory = result.ledger.trajectory
        assert trajectory, "adaptive run recorded no trajectory rows"
        accepted = [r for r in trajectory if r["accepted"]]
        assert len(accepted) == result.ledger.phases
        for row in trajectory:
            assert _METRIC_KEYS <= set(row)
            assert row["decision"] in _DECISIONS
            assert 1 <= row["sample_budget"] <= CAP
            assert row["safety_fraction"] == pytest.approx(0.8)
            assert row["observed_peak_words"] > 0
            assert isinstance(row["words_moved"], dict)
            assert row["routing_skew"] >= 1.0
        for row in accepted:
            assert row["payload_words_p50"] <= row["payload_words_p95"]
            assert row["payload_words_p95"] <= row["payload_words_p99"]
            assert row["payload_words_p99"] <= row["payload_words_max"]
            assert row["observed_peak_words"] <= row["budget_words"]

    def test_ramp_throttle_hold_dynamics_are_recorded(self):
        # Calibrated so the controller ramps 1→2, observes the heavier
        # phase, throttles back to 1, then holds (per-guess cadence
        # gives the run enough phases to show the whole cycle).
        instance = union_of_forests(48, 48, 2, capacity=2, seed=3)
        result = solve_allocation_mpc(
            instance, EPS, lam=2, mode="faithful", seed=0,
            sample_budget=CAP, block_override=1, space_slack=512.0,
            certificate_cadence="per_guess", budget_policy="adaptive",
        )
        decisions = [r["decision"] for r in result.ledger.trajectory]
        assert decisions[:3] == ["init", "ramp", "throttle"]
        assert "hold" in decisions[3:]
        # Prediction is recorded before the observation updates the
        # estimator, so ramp/hold rows carry an auditable forecast.
        for row in result.ledger.trajectory:
            if row["decision"] in ("ramp", "hold", "throttle"):
                assert row["predicted_peak_words"] is not None

    def test_discarded_attempt_appears_as_unaccepted_backoff_row(self):
        # capacity=1 concentrates contention: the exploratory ramp to
        # budget 2 overflows, is discarded, and the phase retries at 1.
        instance = skew_frontier_instance(64, capacity=1, seed=0)
        result = solve_allocation_mpc(
            instance, EPS, lam=4, mode="faithful", seed=0,
            sample_budget=CAP, alpha=ALPHA, block_override=1,
            space_slack=S_TARGET / instance.graph.n_vertices ** ALPHA,
            budget_policy="adaptive",
        )
        rows = result.ledger.trajectory
        discarded = [r for r in rows if not r["accepted"]]
        assert len(discarded) == 1
        assert discarded[0]["decision"] == "backoff"
        assert discarded[0]["observed_peak_words"] > discarded[0]["budget_words"]
        # The retry that followed was accepted at the halved budget.
        retry = rows[rows.index(discarded[0]) + 1]
        assert retry["accepted"] and retry["decision"] == "backoff"
        assert retry["sample_budget"] == discarded[0]["sample_budget"] // 2
        assert result.ledger.violations == []

    def test_fixed_faithful_also_records_trajectory(self):
        result = _solve_skew(32, policy="fixed")
        rows = result.ledger.trajectory
        assert rows and all(r["decision"] == "fixed" for r in rows)
        assert all(r["sample_budget"] == CAP for r in rows)
        assert all(r["predicted_peak_words"] is None for r in rows)

    def test_simulate_mode_records_no_trajectory(self):
        instance = union_of_forests(32, 32, 2, capacity=2, seed=0)
        result = solve_allocation_mpc(instance, EPS, lam=2, seed=0)
        assert result.ledger.trajectory == []
        assert result.meta["budget_policy"] == "fixed"


# ----------------------------------------------------------------------
# Determinism, oracle parity, certificates
# ----------------------------------------------------------------------
class TestDeterminismAndParity:
    def test_adaptive_is_deterministic(self):
        a = _solve_skew(64, policy="adaptive")
        b = _solve_skew(64, policy="adaptive")
        assert np.array_equal(a.allocation.x, b.allocation.x)
        assert a.ledger.trajectory == b.ledger.trajectory
        assert a.certificate == b.certificate

    def test_substrates_agree_bit_for_bit(self):
        with per_record_driver():
            res_o = _solve_skew(64, policy="adaptive")
        res_c = _solve_skew(64, policy="adaptive")
        assert np.array_equal(res_o.allocation.x, res_c.allocation.x)
        assert res_o.ledger.by_category == res_c.ledger.by_category
        assert res_o.ledger.trajectory == res_c.ledger.trajectory
        assert res_o.certificate == res_c.certificate

    def test_certificate_crosscheck_recorded_in_meta(self):
        result = _solve_skew(64, policy="adaptive")
        assert result.meta["budget_policy"] == "adaptive"
        assert result.meta["safety_fraction"] == pytest.approx(0.8)
        assert result.meta["certificate_crosscheck"] is True

    def test_adaptive_allocation_matches_quality_of_generous_fixed(self):
        # Inside the fixed frontier both policies must certify the same
        # ε guarantee; adaptive never trades correctness for space.
        fixed = _solve_skew(24, policy="fixed")
        adaptive = _solve_skew(24, policy="adaptive")
        assert fixed.certificate.mass_condition
        assert adaptive.certificate.mass_condition
        assert adaptive.guarantee == fixed.guarantee


# ----------------------------------------------------------------------
# Validation of the new knobs
# ----------------------------------------------------------------------
class TestKnobValidation:
    def test_adaptive_requires_faithful_mode(self):
        instance = union_of_forests(16, 16, 2, capacity=2, seed=0)
        with pytest.raises(ValueError, match="faithful"):
            solve_allocation_mpc(
                instance, EPS, lam=2, seed=0, budget_policy="adaptive"
            )

    def test_unknown_policy_rejected(self):
        instance = union_of_forests(16, 16, 2, capacity=2, seed=0)
        with pytest.raises(ValueError, match="budget_policy"):
            solve_allocation_mpc(
                instance, EPS, lam=2, seed=0, budget_policy="greedy"
            )

    def test_safety_fraction_validated(self):
        instance = union_of_forests(16, 16, 2, capacity=2, seed=0)
        with pytest.raises(ValueError):
            solve_allocation_mpc(
                instance, EPS, lam=2, mode="faithful", seed=0,
                budget_policy="adaptive", safety_fraction=0.0,
            )
