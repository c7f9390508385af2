"""Decode-round plan: one batched model step over the round's requests.

:class:`DecodeBatch` is the engine's working plan for a decode round: it
collects every member's input token, KVCache and policy into one structure,
builds the :data:`~repro.llm.BatchSelector` that dispatches each layer's
selections to cross-request grouped policy kernels
(:meth:`~repro.baselines.base.KVCachePolicy.select_batch`), and captures the
per-request bookkeeping (``step_selections``, attended-token counts) that the
engine's billing phase consumes afterwards.

A member's results do not depend on its batch-mates: per-request state is
fully isolated (each request owns its KVCache and policy), and grouped policy
kernels are contractually bitwise equal to their batch of one (see
:meth:`KVCachePolicy.select_batch`).  A request with neither a policy nor a
selection hook records *no* per-layer selections (its ``selections`` entry
stays an empty list, and the engine substitutes the full-attention attended
count after the round).

Requests are grouped by *policy class* (order of first occurrence) so each
class's ``select_batch`` / ``on_decode_step_batch`` override sees every
same-class request at once — that is where the cross-request kernel fusion
(grouped ADC scoring, grouped sort-dedup assembly, grouped PQ encoding)
happens.  Stage wall-clock seconds accumulate into :attr:`DecodeBatch.timings`
(keys ``"select"``, ``"score"``, ``"topk"``, ``"assemble"``, ``"gather"``,
``"attention"``, ``"maintenance"``) for :class:`~repro.serve.EngineMetrics`'s decode-round
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..baselines.base import KVCachePolicy
from ..llm.kvcache import KVCache
from ..llm.model import BatchSelector
from .request import StepSelections
from .state import RequestState

__all__ = ["DecodeBatch", "DecodeMember"]


@dataclass
class DecodeMember:
    """One request's slot in a decode round."""

    state: RequestState
    #: token this round processes (the request's last emitted/forced token)
    token: int
    cache: KVCache
    policy: KVCachePolicy | None
    #: optional per-layer observer from the request (test instrumentation)
    hook: object | None
    #: ``policy is not None or hook is not None``; members without either
    #: record no selections and attend to everything
    needs_selector: bool
    #: per-layer normalised selections (``None``, or one index array per KV head)
    step_selections: StepSelections = field(default_factory=list)
    #: per-layer attended-token counts (empty for selector-less members)
    attended: list[float] = field(default_factory=list)


class DecodeBatch:
    """Plan and per-layer dispatch state of one decode round."""

    def __init__(self, members: list[DecodeMember], num_kv_heads: int) -> None:
        self.members = members
        self.num_kv_heads = num_kv_heads
        #: host wall-clock seconds per stage, accumulated across layers
        self.timings: dict[str, float] = {}
        #: positions grouped by policy class, in order of first occurrence —
        #: the unit at which the grouped policy kernels fuse requests
        self.policy_groups: list[tuple[type, list[int]]] = []
        groups: dict[type, list[int]] = {}
        for pos, member in enumerate(members):
            if member.policy is None:
                continue
            cls = type(member.policy)
            if cls not in groups:
                groups[cls] = []
                self.policy_groups.append((cls, groups[cls]))
            groups[cls].append(pos)

    @classmethod
    def plan(
        cls, states: "list[RequestState]", num_kv_heads: int
    ) -> "DecodeBatch":
        """Collect the round's members from the scheduler's decode set."""
        members = []
        for state in states:
            assert state.prefill is not None
            policy = state.policy
            hook = state.request.selection_hook
            members.append(
                DecodeMember(
                    state=state,
                    token=state.next_input_token(),
                    cache=state.prefill.kvcache,
                    policy=policy,
                    hook=hook,
                    needs_selector=policy is not None or hook is not None,
                )
            )
        return cls(members, num_kv_heads)

    @property
    def tokens(self) -> list[int]:
        return [member.token for member in self.members]

    @property
    def caches(self) -> "list[KVCache]":
        return [member.cache for member in self.members]

    def build_selector(self) -> BatchSelector | None:
        """The round's batch selector, recording each member's selections.

        Returns ``None`` when no member carries a policy or a hook — the
        model then runs full attention for the whole round.
        """
        if not any(member.needs_selector for member in self.members):
            return None
        members = self.members
        num_kv_heads = self.num_kv_heads
        timings = self.timings

        def selector(
            layer_index: int,
            queries: "list[np.ndarray]",
            kvcaches: "list[KVCache]",
        ):
            start = perf_counter()
            raw: list = [None] * len(members)
            for policy_cls, positions in self.policy_groups:
                chosen = policy_cls.select_batch(
                    layer_index,
                    [
                        (members[p].policy, queries[p], kvcaches[p])
                        for p in positions
                    ],
                    timings=timings,
                )
                for p, selection in zip(positions, chosen):
                    raw[p] = selection
            for p, member in enumerate(members):
                if not member.needs_selector:
                    # No selections are recorded, attention is unrestricted.
                    continue
                chosen = raw[p]
                if chosen is None:
                    normalised = None
                    member.attended.append(float(len(kvcaches[p][layer_index])))
                elif isinstance(chosen, (list, tuple)):
                    normalised = [np.asarray(c, dtype=np.int64) for c in chosen]
                    member.attended.append(
                        float(np.mean([c.size for c in normalised]))
                    )
                else:
                    arr = np.asarray(chosen, dtype=np.int64)
                    normalised = [arr] * num_kv_heads
                    member.attended.append(float(arr.size))
                if member.hook is not None:
                    member.hook(layer_index, queries[p], kvcaches[p], normalised)
                member.step_selections.append(normalised)
            timings["select"] = (
                timings.get("select", 0.0) + perf_counter() - start
            )
            return raw

        return selector

    def run_policy_updates(self) -> None:
        """Post-append policy maintenance, fused per policy class.

        The grouped equivalent of calling ``policy.on_decode_step(cache)``
        per request: each class's :meth:`KVCachePolicy.on_decode_step_batch`
        sees all its requests at once (PQCache shares one encode call per
        layer across them).  Wall-clock lands in ``timings["maintenance"]``.
        """
        start = perf_counter()
        for policy_cls, positions in self.policy_groups:
            policy_cls.on_decode_step_batch(
                [
                    (self.members[p].policy, self.members[p].cache)
                    for p in positions
                ]
            )
        self.timings["maintenance"] = (
            self.timings.get("maintenance", 0.0) + perf_counter() - start
        )
