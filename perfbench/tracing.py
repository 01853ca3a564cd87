"""Span tracing of the simulator's layers, installed from outside ``src/``.

A :class:`Tracer` wraps public functions and methods of the program at
the place they are defined: methods are replaced on the class that
defines them (``setattr`` on the class, every subclass that overrides
the method is wrapped too), module-level functions on the module whose
global the caller looks up. Object types never change, so exact-type
checks such as the fused kernel's eligibility test see the same classes
with tracing on and off.

Spans live in memory only. Each wrapped call adds its duration to its
parent span's child time; a layer's *self* time is its spans' durations
minus their children. :meth:`Tracer.root` opens the span that covers a
whole workload unit, and its self time is the ``untraced`` remainder, so
the self times of all keys sum to the wall time of the traced units.

Layer names are the program's module names (``core.network``,
``recovery.checkpoint``, ...); see ``README.md`` in this directory for
which workload loads which layer.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: tracker counters read around every outermost tracker call
TRACKER_COUNTERS = (
    "fast_rounds",
    "slow_rounds",
    "deferred_rounds",
    "lazy_resolutions",
    "insert_rounds",
)

_MISSING = object()


def _defining_classes(root: type, attr: str) -> list[type]:
    """``root`` and every loaded subclass that defines ``attr`` itself."""
    seen: list[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return [cls for cls in seen if attr in vars(cls)]


class Tracer:
    """In-memory span recorder with self-time accounting.

    ``threaded=True`` keeps one span stack per thread (the service's
    supervision thread and the status poller call into the manager
    concurrently); the campaign layers run on one thread and use a plain
    list, which keeps the per-call cost of the hot wrappers low.
    """

    def __init__(self, *, threaded: bool = False) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: counts measured at span boundaries (tracker counters, bytes)
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local() if threaded else None
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        #: (class, name, original, wrapper) of the graph mutators, which
        #: are unwrapped while a generator runs: its edge insertions are
        #: input generation, not campaign-side mutation, and should not
        #: pay the wrapper's cost either
        self._mutators: list[tuple[type, str, object, object]] = []
        #: > 0 inside an outermost tracker call (counter deltas are read
        #: there only, so nested tracker calls are not counted twice)
        self._counting = 0

    # -- spans -----------------------------------------------------------
    def _get_stack(self) -> list[float]:
        local = self._local
        if local is None:
            return self._stack
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        return stack

    def span(self, key: str, fn):
        """``fn`` wrapped in a span named ``key``."""
        self_s = self.self_s
        calls = self.calls
        get_stack = self._get_stack

        def traced(*args, **kwargs):
            stack = get_stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                self_s[key] += dt - child
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as a root span; its self time is ``untraced``."""
        return self.span("untraced", fn)(*args, **kwargs)

    def open_spans(self) -> int:
        return len(self._get_stack())

    # -- patching --------------------------------------------------------
    def patch(self, owner: object, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` with ``make_wrapper(original)``.

        A missing attribute is skipped: when a later version of the
        program removes a traced function, its layer reads zero instead
        of the benchmark failing.
        """
        own = vars(owner).get(attr, _MISSING)
        original = own if own is not _MISSING else getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, own))
        setattr(owner, attr, make_wrapper(original))

    def patch_methods(self, root: type, attr: str, make_wrapper) -> None:
        for cls in _defining_classes(root, attr):
            self.patch(cls, attr, make_wrapper)

    def uninstall(self) -> None:
        self._mutators.clear()
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- layer wiring ----------------------------------------------------
    def install_campaign_layers(self) -> None:
        """Wrap every campaign-side layer (all but the service manager)."""
        import repro.recovery.checkpoint as checkpoint
        import repro.sim.fastpath as fastpath
        import repro.sim.parallel as parallel
        from repro.adversary.base import Adversary
        from repro.core.base import Healer
        from repro.core.components import ComponentTracker
        from repro.core.network import SelfHealingNetwork
        from repro.graph.degree_index import DegreeIndex
        from repro.graph.generators import GENERATORS
        from repro.graph.graph import Graph
        from repro.recovery.ledger import CampaignLedger
        from repro.registry import component_registries
        from repro.sim.metrics import Metric

        # Load every registered component class, so subclass discovery
        # below wraps all overrides.
        component_registries()

        def spanned(key):
            return lambda fn: self.span(key, fn)

        for attr in ("choose_round", "reset"):
            self.patch_methods(Adversary, attr, spanned(f"adversary.{attr}"))
        for attr in ("plan", "insertion_plan"):
            self.patch_methods(Healer, attr, spanned(f"core.healer.{attr}"))

        self.patch_methods(
            SelfHealingNetwork, "__init__", spanned("core.network.init")
        )
        for attr in ("delete_and_heal", "insert_and_heal",
                     "delete_batch_and_heal"):
            self.patch_methods(
                SelfHealingNetwork, attr, spanned("core.network.heal")
            )

        tracker_keys = {
            "round": "core.components.round",
            "insert_round": "core.components.insert_round",
            "label_of": "core.components.labels",
            "labels_of": "core.components.labels",
            "resolve_labels": "core.components.labels",
        }
        for attr, key in tracker_keys.items():
            self.patch_methods(
                ComponentTracker, attr,
                lambda fn, key=key: self._counted(key, fn),
            )
        self.patch_methods(
            ComponentTracker, "export_state",
            spanned("core.components.export_state"),
        )

        self.patch(GENERATORS, "make", self._generating)
        for attr in ("add_node", "add_edge", "remove_node", "remove_edge"):
            self.patch_methods(
                Graph, attr, lambda fn: self.span("graph.mutate", fn)
            )
            for cls in _defining_classes(Graph, attr):
                wrapper = vars(cls)[attr]
                self._mutators.append(
                    (cls, attr, wrapper.__wrapped__, wrapper)
                )
        for attr in ("push", "push_many", "max_key", "min_key", "top_node",
                     "bottom_node", "min_label", "bucket"):
            self.patch_methods(
                DegreeIndex, attr, spanned("graph.degree_index")
            )

        for attr in ("on_event", "finalize"):
            self.patch_methods(Metric, attr, spanned(f"sim.metrics.{attr}"))
        for attr in ("run_fused", "run_fused_churn"):
            self.patch(fastpath, attr, spanned("sim.fastpath"))
        self.patch(parallel, "run_task", spanned("sim.experiment.run_task"))

        self.patch(
            checkpoint.CampaignRecorder, "_dynamic_payload",
            spanned("recovery.checkpoint.full"),
        )
        self.patch(
            checkpoint.CampaignRecorder, "_delta_payload",
            spanned("recovery.checkpoint.delta"),
        )
        self.patch(checkpoint.Checkpointer, "write", self._checkpoint_write)
        self.patch(
            checkpoint, "load_checkpoint",
            spanned("recovery.checkpoint.restore"),
        )
        self.patch(
            CampaignLedger, "append", spanned("recovery.ledger.append")
        )

    def install_service_layers(self) -> None:
        """Wrap the service manager's calls (status, supervision, queue)."""
        import repro.service.manager as manager
        from repro.service.queue import JobQueue

        self.patch(
            manager.CampaignService, "metrics_snapshot",
            lambda fn: self.span("service.metrics_snapshot", fn),
        )
        self.patch(
            manager.CampaignService, "poll",
            lambda fn: self.span("service.poll", fn),
        )
        self.patch(
            manager, "ledger_progress",
            lambda fn: self.span("service.ledger_progress", fn),
        )
        enqueued: dict[str, float] = {}
        counts = self.counts

        def push(fn):
            def wrapper(queue, job_id, *args, **kwargs):
                enqueued[job_id] = perf_counter()
                return fn(queue, job_id, *args, **kwargs)
            return wrapper

        def pop(fn):
            def wrapper(queue):
                job_id = fn(queue)
                if job_id in enqueued:
                    counts["service.queue_wait_s"] += (
                        perf_counter() - enqueued.pop(job_id)
                    )
                return job_id
            return wrapper

        self.patch(JobQueue, "push", push)
        self.patch(JobQueue, "pop", pop)

    # -- special wrappers ------------------------------------------------
    def _counted(self, key: str, fn):
        """A tracker span that also adds the tracker's counter deltas."""
        traced = self.span(key, fn)
        counts = self.counts

        def wrapper(tracker, *args, **kwargs):
            if self._counting:
                return traced(tracker, *args, **kwargs)
            before = [getattr(tracker, c) for c in TRACKER_COUNTERS]
            self._counting += 1
            try:
                return traced(tracker, *args, **kwargs)
            finally:
                self._counting -= 1
                for name, b in zip(TRACKER_COUNTERS, before):
                    counts[name] += getattr(tracker, name) - b

        return wrapper

    def _generating(self, fn):
        traced = self.span("graph.generate", fn)

        def wrapper(*args, **kwargs):
            mutators = list(self._mutators)
            for cls, attr, original, _ in mutators:
                setattr(cls, attr, original)
            try:
                return traced(*args, **kwargs)
            finally:
                for cls, attr, _, wrapped in mutators:
                    setattr(cls, attr, wrapped)

        return wrapper

    def _checkpoint_write(self, fn):
        traced = self.span("recovery.checkpoint.write", fn)
        counts = self.counts

        def wrapper(checkpointer, round_index, payload, **kwargs):
            path, digest = traced(checkpointer, round_index, payload, **kwargs)
            if payload.get("kind") == "full":
                counts["recovery.checkpoint.full.bytes"] += (
                    Path(path).stat().st_size
                )
            return path, digest

        return wrapper
