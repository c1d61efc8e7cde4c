"""Adaptive sample-budget throttling for the faithful MPC path.

The faithful driver enforces the model's ``S = O(n^α)`` words budget
strictly: one round whose peak machine load crosses ``S`` raises
:class:`~repro.mpc.SpaceViolation` and kills the run.  With a
*fixed* per-round sample budget that makes the largest runnable
instance a guessing game — budgets generous enough to converge fast
on small instances overflow machines on big or skewed ones, and
budgets safe for the worst case leave most of ``S`` idle everywhere
else (ROADMAP "Adaptive budget throttling").

This module closes the loop.  A :class:`PeakHoldEstimator` tracks the
observed per-phase peak machine words (a held peak with multiplicative
decay, so one heavy phase keeps the controller honest for a while but
does not pin it forever), and fits a power-law load curve
``peak(b) ≈ peak(b₀)·(b/b₀)^γ`` through the held peak — γ estimated
in log-space from the two most recent observations at distinct
budgets, clamped to a sane range.  The
:class:`AdaptiveBudgetController` turns predictions into per-phase
decisions against a *safety fraction* of ``S``:

* ``init``      — first phase runs at a deliberately small budget;
* ``ramp``      — headroom below ``safety_fraction·S`` → grow the
  budget geometrically (capped at the theoretical ``t``);
* ``hold``      — predicted peak sits inside the safety band;
* ``throttle``  — prediction crosses the band → shrink before
  executing, instead of dying on the violation;
* ``backoff``   — the safety net: an executed phase *did* violate
  (the attempt is discarded by the driver), so halve and retry,
  pinning the estimator at ≥ ``S`` for the offending budget.

Every decision is recorded as a round-ledger trajectory row by the
driver (:mod:`repro.core.mpc_driver`), which is what makes throttling
auditable per phase.  See DESIGN.md §13.

Determinism: the controller is pure integer/float arithmetic over
observed peaks — no RNG — and budgets only *cap* the keyed sampler's
deterministic choice counts, so a (seed, schedule) pair fully
determines the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["PeakHoldEstimator", "AdaptiveBudgetController"]

# γ clamp: ball volume grows at least ~linearly and at most ~cubically
# with the per-round sample budget at the radii the driver uses.
_GAMMA_MIN = 0.5
_GAMMA_MAX = 3.0
_GAMMA_DEFAULT = 1.5


@dataclass
class PeakHoldEstimator:
    """Held peak of observed per-phase peak machine words, with decay.

    ``observe(budget, peak)`` folds one accepted phase in: the held
    peak decays by ``decay`` per observation and is replaced whenever
    the fresh observation exceeds the decayed hold (so the reference
    point tracks the heaviest *recent* phase).  ``predict(budget)``
    extrapolates the held peak along the fitted power law; ``None``
    until the first observation.
    """

    decay: float = 0.9
    held_peak: float = 0.0
    held_budget: Optional[int] = None
    history: list[tuple[int, int]] = field(default_factory=list)

    def observe(self, budget: int, peak_words: int) -> None:
        budget = check_positive_int(budget, "budget")
        peak_words = int(peak_words)
        decayed = self.held_peak * self.decay
        if peak_words >= decayed or self.held_budget is None:
            self.held_peak = float(peak_words)
            self.held_budget = budget
        else:
            self.held_peak = decayed
        self.history.append((budget, peak_words))

    def gamma(self) -> float:
        """Power-law exponent from the two most recent observations at
        distinct budgets (log-space slope), clamped to
        ``[0.5, 3.0]``; 1.5 until two usable points exist."""
        for i in range(len(self.history) - 1, 0, -1):
            b2, p2 = self.history[i]
            for j in range(i - 1, -1, -1):
                b1, p1 = self.history[j]
                if b1 != b2 and p1 > 0 and p2 > 0:
                    slope = math.log(p2 / p1) / math.log(b2 / b1)
                    return min(_GAMMA_MAX, max(_GAMMA_MIN, slope))
            break
        return _GAMMA_DEFAULT

    def predict(self, budget: int) -> Optional[float]:
        """Predicted peak machine words at ``budget``; ``None`` before
        any observation."""
        if self.held_budget is None:
            return None
        ratio = budget / self.held_budget
        return self.held_peak * ratio ** self.gamma()


class AdaptiveBudgetController:
    """Per-phase sample-budget decisions against ``safety_fraction·S``.

    ``propose()`` returns ``(budget, decision)`` for the next phase;
    ``observe()`` feeds back the accepted phase's peak; ``backoff()``
    handles an executed violation (returns the retry budget, or
    ``None`` when the budget cannot shrink further and the violation
    is genuine).
    """

    def __init__(
        self,
        *,
        budget_words: int,
        max_budget: int,
        safety_fraction: float = 0.8,
        initial_budget: int = 1,
        ramp_factor: float = 2.0,
        decay: float = 0.9,
    ):
        self.budget_words = check_positive_int(budget_words, "budget_words")
        self.max_budget = check_positive_int(max_budget, "max_budget")
        self.safety_fraction = check_fraction(
            safety_fraction, "safety_fraction", inclusive_high=1.0
        )
        self.initial_budget = check_positive_int(initial_budget, "initial_budget")
        if ramp_factor <= 1.0:
            raise ValueError(f"ramp_factor must exceed 1, got {ramp_factor}")
        self.ramp_factor = float(ramp_factor)
        self.estimator = PeakHoldEstimator(decay=decay)
        self._last: Optional[int] = None

    @property
    def cap_words(self) -> float:
        """The safety band: ``safety_fraction · S`` words."""
        return self.safety_fraction * self.budget_words

    def predicted_peak(self, budget: int) -> Optional[float]:
        return self.estimator.predict(budget)

    def propose(self) -> tuple[int, str]:
        """Budget and decision tag for the next phase."""
        if self._last is None:
            self._last = min(self.initial_budget, self.max_budget)
            return self._last, "init"
        b = self._last
        pred = self.estimator.predict(b)
        if pred is not None and pred > self.cap_words:
            nb = b
            while nb > 1:
                candidate = max(1, nb // 2)
                nb = candidate
                pred_nb = self.estimator.predict(nb)
                if pred_nb is None or pred_nb <= self.cap_words:
                    break
            self._last = nb
            return nb, ("throttle" if nb < b else "hold")
        if b < self.max_budget:
            nb = min(self.max_budget, max(b + 1, int(b * self.ramp_factor)))
            pred_up = self.estimator.predict(nb)
            # Exploratory ramp: before any observation at a budget
            # above b the power-law prior has nothing to extrapolate
            # from (and errs conservative — it would hold at the
            # initial budget forever).  Ramping anyway is safe because
            # a violating attempt is discarded and retried halved by
            # the driver's backoff protocol, which also pins the
            # estimator at ≥ S for the offending budget, so an
            # exploratory over-step is paid at most once per guess.
            tried_higher = any(bb > b for bb, _ in self.estimator.history)
            if pred_up is None or pred_up <= self.cap_words or not tried_higher:
                self._last = nb
                return nb, "ramp"
        return b, "hold"

    def observe(self, budget: int, peak_words: int) -> None:
        self.estimator.observe(budget, peak_words)

    def backoff(self, budget: int, peak_words: Optional[int] = None) -> Optional[int]:
        """An executed phase at ``budget`` violated the space budget.

        Pins the estimator at (at least) one word over ``S`` for that
        budget — the offending budget must predict over the cap from
        now on — and returns the halved retry budget, or ``None`` when
        the budget is already 1 (no throttle can save the phase)."""
        observed = max(int(peak_words or 0), self.budget_words + 1)
        self.estimator.observe(budget, observed)
        if budget <= 1:
            return None
        self._last = max(1, budget // 2)
        return self._last
