"""The benchmark's four workloads.

Each workload derives every input from the run's ``--seed`` and hands
the program only generated inputs. A workload runs in *units*: one unit
is one set-up (timed on its own, reported as ``setup_s``) followed by the
timed part (reported as ``ops_per_s``). The runner repeats units until
the run's time is spent and reports medians over them. Every unit's
outputs are checked; all units of a run must produce the same outputs
(the program is deterministic), and their digest must equal the golden
digest when the run uses the default seed.

See ``README.md`` in this directory for why each workload exists and
which layers it loads.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

#: the seed whose outputs ``golden.json`` records
DEFAULT_SEED = 1


def digest(outputs: object) -> str:
    """SHA-256 of the canonical JSON of a unit's outputs."""
    canon = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def fused_campaigns() -> int:
    """The fused kernel's campaign counter (0 if the kernel is gone)."""
    from repro.sim import fastpath

    return getattr(fastpath, "_fused_campaigns", 0)


@dataclass
class Outcome:
    """One unit's measurements and outputs."""

    setup_s: float
    timed_s: float
    #: heal operations completed in the timed part
    ops: int
    #: JSON-able outputs (digested, compared across units)
    outputs: object
    attempts: int
    #: one line per failed attempt
    failures: list[str] = field(default_factory=list)
    #: campaigns run and how many of them the fused kernel completed
    campaigns: int = 0
    fused: int = 0
    #: workload-specific extras (status latencies, service counters)
    extra: dict = field(default_factory=dict)


def _seeds(seed: int, *labels: str) -> list[int]:
    from repro.utils.rng import derive_seed

    return [derive_seed(seed, "perfbench", label) for label in labels]


def _theorem1_bound(n: int) -> float:
    """Theorem 1: DASH raises no degree by more than 2·log₂ n."""
    return 2 * math.log2(n)


# ----------------------------------------------------------------------
# fig8-sweep
# ----------------------------------------------------------------------
class Fig8Sweep:
    """The paper's Fig. 8 sweep, reduced in repetitions."""

    name = "fig8-sweep"
    sizes = (50, 100, 200, 350, 500)
    #: repetitions per unit (the paper uses 30)
    repetitions = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _spec(self):
        from repro.core.registry import PAPER_HEALERS
        from repro.sim.experiment import ExperimentSpec

        return ExperimentSpec(
            name="fig8",
            generator="preferential_attachment",
            generator_params={"m": 2},
            sizes=self.sizes,
            healers=tuple(PAPER_HEALERS),
            adversary="neighbor-of-max",
            repetitions=self.repetitions,
            master_seed=self.seed,
            connectivity_period=1,
        )

    def unit(self) -> Outcome:
        from repro.graph.generators import GENERATORS
        from repro.sim.experiment import expand_tasks, run_experiment
        from repro.utils.rng import derive_seed

        # Set-up: build the spec and generate every cell's input graph
        # (the cells regenerate the same graphs in-line, as users' sweeps
        # do; timing them apart isolates generator cost).
        t0 = perf_counter()
        spec = self._spec()
        tasks = expand_tasks(spec)
        for _, size, _, rep in tasks:
            GENERATORS.make(
                spec.generator,
                seed=derive_seed(
                    spec.master_seed, spec.name, "graph", size, rep
                ),
                overrides=dict(spec.generator_params),
                force={"n": size},
            )
        setup_s = perf_counter() - t0

        fused0 = fused_campaigns()
        t0 = perf_counter()
        results = run_experiment(spec, jobs=1, retries=0)
        timed_s = perf_counter() - t0

        rows = sorted(
            ([dict(r.params), dict(r.values)] for r in results.rows),
            key=lambda row: json.dumps(row[0], sort_keys=True),
        )
        failures = []
        ops = 0
        for params, values in rows:
            size = params["size"]
            cell = f"{params['healer']} n={size} rep={params['rep']}"
            ops += int(values["deletions"])
            if values["always_connected"] != 1.0:
                failures.append(f"{cell}: disconnected")
            elif values["deletions"] != size or values["final_alive"] != 0:
                failures.append(f"{cell}: not a full kill")
            elif (
                params["healer"] in ("dash", "sdash")
                and values["max_degree_increase"] > _theorem1_bound(size)
            ):
                failures.append(f"{cell}: degree increase above 2·log2 n")
        missing = len(tasks) - len(rows)
        failures.extend(["cell missing from the result set"] * missing)
        return Outcome(
            setup_s=setup_s,
            timed_s=timed_s,
            ops=ops,
            outputs=rows,
            attempts=len(tasks),
            failures=failures,
            campaigns=len(tasks),
            fused=fused_campaigns() - fused0,
        )

    def verify_once(self, outputs) -> list[str]:
        return []


# ----------------------------------------------------------------------
# churn-steady and fused-kill: one large array-backend campaign per unit
# ----------------------------------------------------------------------
class _ArrayCampaign:
    n = 150_000
    m = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph_seed, self.id_seed, self.attack_seed = _seeds(
            seed, "graph", "ids", "attack"
        )

    def _adversary(self):
        raise NotImplementedError

    def check(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def unit(self) -> Outcome:
        from repro.core.registry import HEALERS
        from repro.graph.generators import GENERATORS
        from repro.sim.engine import run_campaign

        t0 = perf_counter()
        graph = GENERATORS.make(
            "pa",
            seed=self.graph_seed,
            overrides={"n": self.n, "m": self.m, "backend": "array"},
        )
        setup_s = perf_counter() - t0

        fused0 = fused_campaigns()
        t0 = perf_counter()
        result = run_campaign(
            graph,
            HEALERS.make("dash", seed=self.id_seed),
            self._adversary(),
            id_seed=self.id_seed,
        )
        timed_s = perf_counter() - t0
        outputs = {
            "deletions": result.deletions,
            "insertions": result.insertions,
            "final_alive": result.final_alive,
            "peak_delta": result.peak_delta,
        }
        problems = self.check(outputs)
        return Outcome(
            setup_s=setup_s,
            timed_s=timed_s,
            ops=result.deletions + result.insertions,
            outputs=outputs,
            attempts=1,
            failures=["; ".join(problems)] if problems else [],
            campaigns=1,
            fused=fused_campaigns() - fused0,
        )

    def verify_once(self, outputs) -> list[str]:
        return []


class ChurnSteady(_ArrayCampaign):
    """Steady-state birth/death churn on the array backend."""

    name = "churn-steady"
    rate = 4
    rounds = 500

    def _adversary(self):
        from repro.churn.adversaries import ChurnAdversary

        return ChurnAdversary(
            rate=self.rate,
            lifetime="exp",
            mean=self.n / 4,
            rounds=self.rounds,
            seed=self.attack_seed,
        )

    def check(self, outputs: dict) -> list[str]:
        failures = []
        if outputs["insertions"] != self.rate * self.rounds:
            failures.append("insertions != rate × rounds")
        if (
            outputs["deletions"] + outputs["final_alive"]
            != self.n + outputs["insertions"]
        ):
            failures.append("deletions + final_alive != n + insertions")
        return failures

    def verify_once(self, outputs) -> list[str]:
        """Replay the adversary alone and count the ops it schedules.

        The churn adversary never consults the network after ``reset``,
        so its op stream is a function of the seed; the campaign must
        have executed every op it was given.
        """
        adversary = self._adversary()
        stub = SimpleNamespace(
            graph=SimpleNamespace(nodes=lambda: iter(range(self.n)))
        )
        adversary.reset(stub)
        deletions = insertions = 0
        while (ops := adversary.choose_round(stub)) is not None:
            for op in ops:
                if op[0] == "add":
                    insertions += 1
                else:
                    deletions += 1
        expected = {
            "deletions": deletions,
            "insertions": insertions,
            "final_alive": self.n + insertions - deletions,
        }
        return [
            f"{key}: campaign {outputs[key]}, adversary replay {value}"
            for key, value in expected.items()
            if outputs[key] != value
        ]


class FusedKill(_ArrayCampaign):
    """Unobserved full kill: DASH × random on the array backend."""

    name = "fused-kill"

    def _adversary(self):
        from repro.adversary.classic import RandomAttack

        return RandomAttack(seed=self.attack_seed)

    def check(self, outputs: dict) -> list[str]:
        failures = []
        if outputs["deletions"] != self.n or outputs["final_alive"] != 0:
            failures.append("not a full kill")
        if outputs["peak_delta"] > _theorem1_bound(self.n):
            failures.append("degree increase above 2·log2 n")
        return failures


# ----------------------------------------------------------------------
# service-job
# ----------------------------------------------------------------------
def _end_record(ledger_path: Path) -> dict | None:
    from repro.recovery.ledger import latest_campaign, read_ledger

    _, tail = latest_campaign(read_ledger(ledger_path))
    ends = [r for r in tail if r.get("type") == "end"]
    return ends[-1] if ends else None


def _summary(record: dict | None) -> dict | None:
    """The campaign outcome fields of a ledger end record."""
    if record is None:
        return None
    return {
        k: record.get(k)
        for k in ("deletions", "final_alive", "peak_delta", "values")
    }


@contextlib.contextmanager
def _crash_after(round_index: int):
    """Make :func:`run_request` crash in-process after ``round_index``
    rounds, by adding the recovery package's fault-injecting metric to
    the campaign it starts."""
    import repro.service.request as request_module
    from repro.recovery.faults import CrashAtRound

    real = request_module.run_campaign

    def run_campaign(*args, metrics=(), **kwargs):
        return real(
            *args, metrics=[*metrics, CrashAtRound(round_index)], **kwargs
        )

    request_module.run_campaign = run_campaign
    try:
        yield
    finally:
        request_module.run_campaign = real


class ServiceJob:
    """Two queued campaign requests through a real :class:`CampaignService`
    with one worker; the first job's worker is SIGKILLed halfway."""

    name = "service-job"
    n = 16_000
    max_deletions = 400
    #: open-loop status poll period (seconds)
    poll_period = 0.05
    #: service constructions per unit (``setup_s`` is their median)
    setup_samples = 100
    #: a unit still running after this many seconds counts as failed
    timeout_s = 120.0

    def __init__(self, seed: int, tmp_base: Path) -> None:
        self.seed = seed
        self.tmp_base = tmp_base

    def _requests(self):
        from repro.service.request import CampaignRequest

        return [
            CampaignRequest(
                generator=f"pa:n={self.n},m=3{backend}",
                healer="dash",
                adversary="random",
                seed=self.seed,
                max_deletions=self.max_deletions,
            )
            for backend in ("", ",backend=array")
        ]

    @contextlib.contextmanager
    def _job_root(self):
        """A fresh job root under the checkout, removed afterwards."""
        root = Path(tempfile.mkdtemp(prefix="jobs-", dir=self.tmp_base))
        try:
            yield root
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def unit(self, tracer=None) -> Outcome:
        """One real service run. With a tracer, the manager-side calls
        (status, supervision, queue) are traced."""
        from repro.service.manager import CampaignService

        with self._job_root() as root:
            # Every construction after the first restarts the service on
            # the same (empty) root, as a restarted ``repro serve`` does.
            times = []
            for _ in range(self.setup_samples):
                t0 = perf_counter()
                service = CampaignService(root / "svc", max_workers=1)
                requests = self._requests()
                times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.install_service_layers()
            try:
                outcome = self._drive(service, requests)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        outcome.setup_s = statistics.median(times)
        return outcome

    def _drive(self, service, requests) -> Outcome:
        service.start()
        try:
            t_submit = time.time()
            t0 = perf_counter()
            job_ids = [service.submit(r)[0] for r in requests]
            polls = self._poll(
                service, job_ids, t0,
                kill_job=job_ids[0], kill_round=self.max_deletions // 2,
            )
        finally:
            service.shutdown()
        jobs = [service.jobs[j] for j in job_ids]
        timed_s = max(job.updated_at for job in jobs) - t_submit

        outputs = [_summary(job.result) for job in jobs]
        problems: list[list[str]] = [[] for _ in jobs]
        if polls["timed_out"]:
            for job_problems in problems:
                job_problems.append("timed out")
        if not polls["killed"]:
            problems[0].append("the planned SIGKILL did not happen")
        if outputs[1] != outputs[0]:
            problems[1].append("array result differs from object result")
        for index, job in enumerate(jobs):
            if job.state.value != "done":
                problems[index].append(f"ended {job.state.value}")
            if job.attempts:
                problems[index].append(f"needed {job.attempts} retries")
            expected_resumes = 1 if index == 0 else 0
            if job.resumes != expected_resumes:
                problems[index].append(
                    f"{job.resumes} resumes, expected {expected_resumes}"
                )
        failures = [
            f"job {index}: " + "; ".join(job_problems)
            for index, job_problems in enumerate(problems) if job_problems
        ]
        return Outcome(
            setup_s=0.0,
            timed_s=timed_s,
            ops=sum((o or {}).get("deletions") or 0 for o in outputs),
            outputs=outputs,
            attempts=len(jobs),
            failures=failures,
            extra={
                "status_ms": polls["latency_ms"],
                "late_ms": polls["late_ms"],
                "resumes": service.counters["resumes"],
                "retries": service.counters["retries"],
            },
        )

    def _poll(self, service, job_ids, t0: float, *, kill_job, kill_round):
        """Open-loop status poller: one ``metrics_snapshot()`` every
        ``poll_period`` seconds on a fixed schedule from ``t0``. A poll's
        latency runs from when it was due, so a stalled manager shows up
        as latency, not as fewer polls; lateness is how far behind
        schedule the poll started. Kills ``kill_job``'s worker once its
        ledger passes ``kill_round``."""
        latency_ms, late_ms = [], []
        killed = timed_out = False
        k = 0
        while True:
            due = t0 + k * self.poll_period
            k += 1
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            start = perf_counter()
            snapshot = service.metrics_snapshot()
            end = perf_counter()
            late_ms.append((start - due) * 1e3)
            latency_ms.append((end - due) * 1e3)
            jobs = snapshot["jobs"]
            if not killed and jobs[kill_job]["rounds"] >= kill_round:
                pid = service.status(kill_job)["pid"]
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    killed = True
            if all(jobs[j]["state"] in ("done", "failed", "cancelled")
                   for j in job_ids):
                break
            if end - t0 > self.timeout_s:
                timed_out = True
                break
        return {"latency_ms": latency_ms, "late_ms": late_ms,
                "killed": killed, "timed_out": timed_out}

    def verify_once(self, outputs) -> list[str]:
        """Each job's result must equal an in-process ``run_request``."""
        from repro.service.request import run_request

        failures = []
        for index, request in enumerate(self._requests()):
            result = run_request(request)
            expected = json.loads(json.dumps({
                "deletions": result.deletions,
                "final_alive": result.final_alive,
                "peak_delta": result.peak_delta,
                "values": dict(result.values),
            }))
            if outputs[index] != expected:
                failures.append(
                    f"job {index}: result differs from in-process run_request"
                )
        return failures

    def inprocess_unit(self) -> Outcome:
        """Both jobs' worker bodies in this process, where the tracer can
        see them: ``run_request`` at the service's checkpoint cadence, an
        injected crash halfway through the first job, then
        ``resume_from_ledger`` — what the worker subprocess does."""
        from repro.errors import SimulatedCrash
        from repro.recovery.checkpoint import resume_from_ledger
        from repro.service.manager import CampaignService
        from repro.service.request import run_request

        failures: list[str] = []
        ledger_bytes = 0
        with self._job_root() as root:
            cadence = CampaignService(
                root / "svc", max_workers=1
            ).checkpoint_every
            requests = self._requests()

            def body():
                nonlocal ledger_bytes
                ends = []
                for index, request in enumerate(requests):
                    job_dir = root / f"job{index}"
                    ledger = job_dir / "campaign.jsonl"
                    recovery = {
                        "checkpoint_every": cadence,
                        "checkpoint_dir": job_dir / "checkpoints",
                        "ledger": ledger,
                    }
                    if index == 0:
                        try:
                            with _crash_after(self.max_deletions // 2):
                                run_request(request, **recovery)
                            failures.append("job 0: injected crash missed")
                        except SimulatedCrash:
                            pass
                        resume_from_ledger(ledger, keep_checkpointing=True)
                    else:
                        run_request(request, **recovery)
                    ends.append(_summary(_end_record(ledger)))
                    ledger_bytes += ledger.stat().st_size
                return ends

            t0 = perf_counter()
            outputs = body()
            wall = perf_counter() - t0
        return Outcome(
            setup_s=0.0,
            timed_s=wall,
            ops=sum((o or {}).get("deletions") or 0 for o in outputs),
            outputs=outputs,
            attempts=len(requests),
            failures=failures,
            campaigns=3,
            extra={"ledger_bytes": ledger_bytes},
        )


WORKLOADS = {
    cls.name: cls for cls in (Fig8Sweep, ServiceJob, ChurnSteady, FusedKill)
}
