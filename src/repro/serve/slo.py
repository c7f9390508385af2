"""Opt-in SLO feedback loop: tune serving knobs toward per-class TTFT targets.

:class:`SLOTuner` closes the loop between the engine's per-class streaming
TTFT quantile digests (:class:`~repro.serve.QuantileDigest`) and the two
knobs that buy interactive latency under contention:

* the engine's live ``proactive_swap_free_fraction`` — raised when a
  targeted class misses its TTFT target (low-priority running work yields
  pool blocks earlier), relaxed back toward the configured
  :class:`~repro.serve.SchedulerConfig` baseline once every targeted class
  has comfortable margin;
* the scheduler's ``tenant_weights`` overrides — tenants observed serving a
  violating class get a larger weighted-fair share of the chunked-prefill
  budget (the frozen per-request QoS declarations stay untouched).

The loop reads *windowed* quantiles: every ``adjust_every`` engine steps it
takes the digest delta since its previous mark, so one bad burst does not
haunt the controller forever and recovery is observable.  Tuning is
scheduling-only by construction — both knobs steer ordering and budget
shares, never what a request computes, so the engine's byte-identity
invariant is untouched.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .metrics import QuantileDigest
from .scheduler import Schedulable

__all__ = ["SLOTuner"]


class SLOTuner:
    """Feedback controller from per-class TTFT quantiles to serving knobs.

    Attach via ``InferenceEngine(..., slo_tuner=SLOTuner({2: 0.002}))``: the
    engine feeds it every finished request (:meth:`observe`) and calls
    :meth:`on_step` once per productive step.  Every ``adjust_every`` steps
    the tuner compares each targeted class's windowed TTFT quantile against
    its target:

    * any violation → *tighten*: raise the engine's proactive swap-out
      threshold by ``fraction_step`` (capped at ``max_free_fraction``) and
      multiply the violating classes' tenants' weight overrides by
      ``weight_gain`` (capped at ``max_weight_gain`` over the declared
      base weight);
    * every targeted class at or under ``relax_margin`` of its target →
      *relax*: walk the threshold back toward the configured baseline and
      decay the weight overrides, removing them once they reach the base.

    Every adjustment bumps ``EngineMetrics.slo_tunings`` and appends a
    record to :attr:`history`.

    Args:
        ttft_targets: ``{priority_class: target_ttft_seconds}`` — classes
            absent from the mapping are never tuned against.
        quantile: which TTFT quantile must meet the target (default p90).
        adjust_every: engine steps between control decisions.
        min_samples: minimum finished requests in a class's window before
            its quantile is trusted (smaller windows are skipped).
        fraction_step: additive step applied to the proactive threshold.
        max_free_fraction: cap on the tuned proactive threshold.
        weight_gain: multiplicative boost per tighten round on the weight
            overrides of tenants serving a violating class.
        max_weight_gain: cap on the cumulative boost multiplier.
        relax_margin: relax only when every measured class sits at or under
            ``relax_margin * target`` — hysteresis so the controller does
            not oscillate around the target.
    """

    def __init__(
        self,
        ttft_targets: dict,
        quantile: float = 0.9,
        adjust_every: int = 8,
        min_samples: int = 4,
        fraction_step: float = 0.1,
        max_free_fraction: float = 0.95,
        weight_gain: float = 1.5,
        max_weight_gain: float = 8.0,
        relax_margin: float = 0.5,
    ) -> None:
        if not ttft_targets:
            raise ConfigurationError("ttft_targets must name at least one class")
        if any(target <= 0 for target in ttft_targets.values()):
            raise ConfigurationError("TTFT targets must be > 0 seconds")
        if not 0.0 < quantile <= 1.0:
            raise ConfigurationError("quantile must be in (0, 1]")
        if adjust_every <= 0:
            raise ConfigurationError("adjust_every must be positive")
        if min_samples <= 0:
            raise ConfigurationError("min_samples must be positive")
        if fraction_step <= 0:
            raise ConfigurationError("fraction_step must be positive")
        if not 0.0 < max_free_fraction <= 1.0:
            raise ConfigurationError("max_free_fraction must be in (0, 1]")
        if weight_gain <= 1.0:
            raise ConfigurationError("weight_gain must be > 1")
        if max_weight_gain < weight_gain:
            raise ConfigurationError("max_weight_gain must be >= weight_gain")
        if not 0.0 < relax_margin <= 1.0:
            raise ConfigurationError("relax_margin must be in (0, 1]")
        self.ttft_targets = {int(k): float(v) for k, v in ttft_targets.items()}
        self.quantile = quantile
        self.adjust_every = adjust_every
        self.min_samples = min_samples
        self.fraction_step = fraction_step
        self.max_free_fraction = max_free_fraction
        self.weight_gain = weight_gain
        self.max_weight_gain = max_weight_gain
        self.relax_margin = relax_margin
        self._steps = 0
        #: per-class digest snapshots marking the last consumed window
        self._marks: dict[int, QuantileDigest] = {}
        #: which tenants have been observed finishing work in which class
        self._class_tenants: dict[int, set] = {}
        #: largest declared weight seen per tenant (the boost base)
        self._base_weights: dict[str, float] = {}
        #: current cumulative boost multiplier per tenant (>= 1.0)
        self._boosts: dict[str, float] = {}
        #: one record per control decision that moved a knob
        self.history: list[dict] = []

    # -------------------------------------------------------- engine hooks

    def observe(self, item: Schedulable) -> None:
        """Record a finished request's class ↔ tenant association.

        The engine calls this for every normally-finished request; the
        tuner only needs the QoS coordinates, not the latency — latency
        arrives through the engine's per-class digests.
        """
        self._class_tenants.setdefault(item.priority, set()).add(item.tenant)
        self._base_weights[item.tenant] = max(
            self._base_weights.get(item.tenant, 0.0), item.weight
        )

    def on_step(self, engine) -> None:
        """Control tick — called by the engine once per productive step."""
        self._steps += 1
        if self._steps % self.adjust_every:
            return
        violations: list[tuple[int, float, float]] = []
        measured: list[tuple[int, float, float]] = []
        for priority in sorted(self.ttft_targets):
            bucket = engine.metrics.per_class.get(priority)
            if bucket is None:
                continue
            window = bucket.ttft.delta(self._marks.get(priority))
            if window.count < self.min_samples:
                continue
            self._marks[priority] = bucket.ttft.snapshot()
            observed = window.quantile(self.quantile)
            assert observed is not None  # count >= min_samples > 0
            target = self.ttft_targets[priority]
            measured.append((priority, observed, target))
            if observed > target:
                violations.append((priority, observed, target))
        if violations:
            self._tighten(engine, violations)
        elif measured and all(
            observed <= target * self.relax_margin
            for _, observed, target in measured
        ):
            self._relax(engine, measured)

    # ------------------------------------------------------- control moves

    def _apply_boost(self, engine, tenant: str, multiplier: float) -> bool:
        """Set one tenant's weight override to ``base * multiplier``.

        A multiplier of 1.0 removes the override entirely, handing the
        weighted-fair split back to the requests' declared weights.
        Returns whether anything changed.
        """
        if multiplier <= 1.0:
            if self._boosts.pop(tenant, None) is None:
                return False
            engine.scheduler.tenant_weights.pop(tenant, None)
            return True
        if self._boosts.get(tenant) == multiplier:
            return False
        self._boosts[tenant] = multiplier
        base = self._base_weights.get(tenant, 1.0)
        engine.scheduler.tenant_weights[tenant] = base * multiplier
        return True

    def _tighten(self, engine, violations) -> None:
        changed = False
        current = engine.proactive_swap_free_fraction or 0.0
        raised = min(self.max_free_fraction, current + self.fraction_step)
        if raised > current:
            engine.proactive_swap_free_fraction = raised
            changed = True
        for priority, _observed, _target in violations:
            for tenant in sorted(self._class_tenants.get(priority, ())):
                boost = min(
                    self._boosts.get(tenant, 1.0) * self.weight_gain,
                    self.max_weight_gain,
                )
                changed = self._apply_boost(engine, tenant, boost) or changed
        self._record(engine, "tighten", violations, changed)

    def _relax(self, engine, measured) -> None:
        changed = False
        baseline = engine.scheduler.config.proactive_swap_free_fraction
        current = engine.proactive_swap_free_fraction
        if current is not None and current != baseline:
            floor = baseline if baseline is not None else 0.0
            lowered = max(floor, current - self.fraction_step)
            engine.proactive_swap_free_fraction = (
                None if baseline is None and lowered <= 0.0 else lowered
            )
            changed = True
        for tenant in sorted(self._boosts):
            decayed = self._boosts[tenant] / self.weight_gain
            if decayed < 1.0 + 1e-12:
                decayed = 1.0
            changed = self._apply_boost(engine, tenant, decayed) or changed
        if changed:
            self._record(engine, "relax", measured, changed)

    def _record(self, engine, action: str, classes, changed: bool) -> None:
        if changed:
            engine.metrics.slo_tunings += 1
        self.history.append({
            "step": self._steps,
            "action": action,
            "changed": changed,
            "classes": [
                {"priority": p, "observed": o, "target": t}
                for p, o, t in classes
            ],
            "proactive_swap_free_fraction": engine.proactive_swap_free_fraction,
            "tenant_weights": dict(engine.scheduler.tenant_weights),
        })
