"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig8-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that splits each unit's time
across the program's layers. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 whenever a result was printed (a failed output check shows as
``correct: false``) and nonzero if the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
#: parent of each run's scratch directory (service job roots), inside
#: the checkout
TMP_PARENT = CHECKOUT / ".perfbench_tmp"

#: fewest units a run measures while within its time
MIN_UNITS = 3

#: the reference loop's time on the host the benchmark was tuned on (a
#: 2-core Xeon VM in a fast phase); see :func:`calibrate`
CALIBRATION_REF_S = 0.05

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

#: (metric, unit) of the traced run, in report order
PER_LAYER = [
    ("adversary.choose_round.calls", "count"),
    ("adversary.choose_round.self_s", "s"),
    ("adversary.reset.self_s", "s"),
    ("core.healer.plan.calls", "count"),
    ("core.healer.plan.self_s", "s"),
    ("core.healer.insertion_plan.calls", "count"),
    ("core.healer.insertion_plan.self_s", "s"),
    ("core.network.init.self_s", "s"),
    ("core.network.heal.calls", "count"),
    ("core.network.heal.self_s", "s"),
    ("core.components.round.calls", "count"),
    ("core.components.round.self_s", "s"),
    ("core.components.insert_round.calls", "count"),
    ("core.components.insert_round.self_s", "s"),
    ("core.components.labels.self_s", "s"),
    ("core.components.export_state.self_s", "s"),
    ("core.components.fast_rounds", "count"),
    ("core.components.slow_rounds", "count"),
    ("core.components.deferred_rounds", "count"),
    ("core.components.lazy_resolutions", "count"),
    ("core.components.insert_rounds", "count"),
    ("core.components.fast_share", "ratio"),
    ("graph.generate.s", "s"),
    ("graph.mutate.calls", "count"),
    ("graph.mutate.self_s", "s"),
    ("graph.degree_index.self_s", "s"),
    ("sim.metrics.on_event.calls", "count"),
    ("sim.metrics.on_event.self_s", "s"),
    ("sim.metrics.finalize.self_s", "s"),
    ("sim.fastpath.self_s", "s"),
    ("sim.fastpath.fused_share", "ratio"),
    ("sim.experiment.run_task.self_s", "s"),
    ("recovery.checkpoint.full.count", "count"),
    ("recovery.checkpoint.full.self_s", "s"),
    ("recovery.checkpoint.full.bytes", "bytes"),
    ("recovery.checkpoint.delta.count", "count"),
    ("recovery.checkpoint.delta.self_s", "s"),
    ("recovery.checkpoint.write.self_s", "s"),
    ("recovery.checkpoint.restore.self_s", "s"),
    ("recovery.ledger.append.calls", "count"),
    ("recovery.ledger.append.self_s", "s"),
    ("recovery.ledger.bytes", "bytes"),
    ("service.metrics_snapshot.self_s", "s"),
    ("service.ledger_progress.calls", "count"),
    ("service.ledger_progress.self_s", "s"),
    ("service.poll.self_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.resumes", "count"),
    ("service.retries", "count"),
    ("service.status_ms.p50", "ms"),
    ("service.status_ms.p90", "ms"),
    ("service.poller.late_p50_ms", "ms"),
    ("service.poller.late_max_ms", "ms"),
    ("trace.untraced_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead", "ratio"),
]

#: the program's layers, for the per-layer self-time ranking
LAYERS = (
    "adversary", "core.healer", "core.network", "core.components",
    "graph", "sim.metrics", "sim.fastpath", "sim.experiment",
    "recovery.checkpoint", "recovery.ledger",
)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _filesystem_of(path: Path) -> str | None:
    """Filesystem type of the mount holding ``path``."""
    best, fstype = "", None
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return None
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        point = fields[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, fstype = point, fields[2]
    return fstype


def _git() -> tuple[str | None, bool | None]:
    if not (CHECKOUT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(dirty)


def _source_digest() -> str:
    """SHA-256 over the program's source files (names and bytes) — the
    provenance that survives a checkout without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    sha, dirty = _git()
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    record = {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": _source_digest(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    if workload == "service-job":
        record["job_root_fs"] = _filesystem_of(TMP_PARENT)
    return record


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
class Checks:
    """Failures counted against attempts (one message per failed
    attempt)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempts: int, failures: list[str]) -> None:
        self.attempted += attempts
        self.failed += min(attempts, len(failures))
        self.messages.extend(failures)


def _golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def check_outputs(workload, seed: int, outcomes, checks: Checks) -> str:
    """Cross-unit determinism, the workload's one-off independent check,
    and the golden digest at the default seed. Returns the digest."""
    from workloads import DEFAULT_SEED, digest

    digests = [digest(o.outputs) for o in outcomes]
    checks.add(
        len(digests) - 1,
        [f"unit {i} outputs differ from unit 0"
         for i, d in enumerate(digests[1:], 1) if d != digests[0]],
    )
    problems = workload.verify_once(outcomes[0].outputs)
    checks.add(1, [f"{workload.name}: " + "; ".join(problems)]
               if problems else [])
    if seed == DEFAULT_SEED:
        golden = _golden().get(workload.name, {})
        record = golden.get("record")
        if record is not None and outcomes[0].outputs != record:
            failures = [f"{workload.name}: outputs {outcomes[0].outputs} "
                        f"!= golden record {record}"]
        elif digests[0] != golden.get("digest"):
            failures = [f"{workload.name}: digest {digests[0]} != golden "
                        f"{golden.get('digest')}"]
        else:
            failures = []
        checks.add(1, failures)
    return digests[0]


def calibrate() -> float:
    """Seconds a fixed interpreter-bound reference loop takes right now.

    Shared hosts run in phases tens of minutes long in which the same
    code is 20–40% slower; the loop slows with them (its run medians
    track the workloads' with correlations of −0.7 to −0.98 on the
    tuning host), so timings scaled by it compare across phases. It uses
    only builtins and runs with the cyclic collector off, so nothing the
    program does can change its speed.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(40):
            table: dict[int, int] = {}
            live: set[int] = set()
            for i in range(5_000):
                table[i] = i * 7 % 1009
                live.add(i ^ 0x5A5A)
                if i % 3 == 0:
                    live.discard(i - 3)
            sorted(table.values())
        return perf_counter() - t0
    finally:
        gc.enable()


def repeat_units(run_unit, seconds: float) -> tuple[list, list[float]]:
    """Run units until the next one would overrun ``seconds`` (at least
    ``MIN_UNITS`` of them, unless the run is already out of time).
    Returns the outcomes and the reference-loop times measured before
    each unit and after the last."""
    outcomes = []
    calibration = []
    start = perf_counter()
    while True:
        calibration.append(calibrate())
        outcomes.append(run_unit())
        gc.collect()
        elapsed = perf_counter() - start
        per_unit = elapsed / len(outcomes)
        if elapsed + per_unit > seconds and (
            len(outcomes) >= MIN_UNITS or elapsed > seconds
        ):
            calibration.append(calibrate())
            return outcomes, calibration


def plain_run(workload, seed: int, seconds: float, checks: Checks) -> dict:
    outcomes, calibration = repeat_units(workload.unit, seconds)
    for o in outcomes:
        checks.add(o.attempts, o.failures)
    check_outputs(workload, seed, outcomes, checks)

    usage = resource.RUSAGE_CHILDREN if workload.name == "service-job" \
        else resource.RUSAGE_SELF
    setup_s = statistics.median(o.setup_s for o in outcomes)
    ops_per_s = statistics.median(o.ops / o.timed_s for o in outcomes)
    # Timings are scaled to the reference host speed (see calibrate).
    speed = CALIBRATION_REF_S / statistics.median(calibration)
    metrics = {
        "setup_s": setup_s * speed,
        "ops_per_s": ops_per_s / speed,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    print(f"{workload.name}: {len(outcomes)} units, "
          f"{sum(o.ops for o in outcomes)} heal ops; per unit ops/s "
          + " ".join(f"{o.ops / o.timed_s:.5g}" for o in outcomes))
    print(f"  host speed {speed:.4f} × reference; as timed here: "
          f"setup_s = {setup_s:.6g} s, ops_per_s = {ops_per_s:.6g} 1/s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    if workload.name == "service-job":
        status = [ms for o in outcomes for ms in o.extra["status_ms"]]
        late = [ms for o in outcomes for ms in o.extra["late_ms"]]
        print(f"  status_ms.p50 = {statistics.median(status):.4g} ms  "
              f"status_ms.p90 = {p90(status):.4g} ms  "
              f"({len(status)} open-loop polls)")
        print(f"  poller lateness p50 = {statistics.median(late):.4g} ms  "
              f"max = {max(late):.4g} ms")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def _traced_unit(unit_fn, tracer, checks: Checks):
    """Run one unit under ``tracer``; check the spans account for it."""
    before = sum(tracer.self_s.values())
    tracer.install_campaign_layers()
    try:
        t0 = perf_counter()
        outcome = tracer.root(unit_fn)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    covered = sum(tracer.self_s.values()) - before
    negative = [k for k, v in tracer.self_s.items() if v < -1e-6]
    if tracer.open_spans() or negative:
        checks.add(1, [f"unbalanced spans (negative: {negative})"])
    elif abs(covered - wall) > 0.01 * wall + 1e-3:
        checks.add(1, [
            f"self times sum to {covered:.4f} s of a {wall:.4f} s unit"
        ])
    else:
        checks.add(1, [])
    return outcome, wall


def traced_run(workload, seed: int, seconds: float, checks: Checks) -> dict:
    """Alternate plain and traced units; report per-layer metrics of the
    traced ones, the tracing overhead, and check that tracing changed
    neither the outputs nor the fused kernel's share."""
    from tracing import Tracer
    from workloads import digest

    service = workload.name == "service-job"
    start = perf_counter()
    manager = None
    if service:
        # Manager-side spans come from a real service run; the worker's
        # layers are traced on its body run in-process below.
        manager = Tracer(threaded=True)
        real = workload.unit(tracer=manager)
        checks.add(real.attempts, real.failures)
        unit_fn = workload.inprocess_unit
    else:
        unit_fn = workload.unit

    camp = Tracer()
    plain, traced = [], []
    while True:
        t0 = perf_counter()
        plain.append((unit_fn(), perf_counter() - t0))
        gc.collect()
        traced.append(_traced_unit(unit_fn, camp, checks))
        gc.collect()
        elapsed = perf_counter() - start
        per_pair = elapsed / len(plain)
        if len(plain) >= 2 and elapsed + per_pair > seconds:
            break
    for outcome, _ in plain + traced:
        checks.add(outcome.attempts, outcome.failures)
    plain_outcomes = [o for o, _ in plain]
    plain_digest = check_outputs(workload, seed, plain_outcomes, checks)

    def share(outcomes):
        runs = sum(o.campaigns for o in outcomes)
        return sum(o.fused for o in outcomes) / runs if runs else 0.0

    traced_outcomes = [o for o, _ in traced]
    invariance = [
        f"traced unit {i} outputs differ from the plain run"
        for i, o in enumerate(traced_outcomes)
        if digest(o.outputs) != plain_digest
    ]
    if share(traced_outcomes) != share(plain_outcomes):
        invariance.append("tracing changed the fused kernel's share")
    if service and digest(real.outputs) != plain_digest:
        invariance.append("service results differ from the in-process run")
    checks.add(len(traced_outcomes) + 1 + service, invariance)

    units = len(traced)
    wall = statistics.median(w for _, w in traced)
    plain_wall = statistics.median(w for _, w in plain)

    def self_s(key):
        return camp.self_s.get(key, 0.0) / units

    def calls(key):
        return camp.calls.get(key, 0) / units

    def count(key):
        return camp.counts.get(key, 0.0) / units

    rounds = sum(count(c) for c in (
        "fast_rounds", "slow_rounds", "deferred_rounds", "insert_rounds"))
    values = {
        "adversary.choose_round.calls": calls("adversary.choose_round"),
        "adversary.choose_round.self_s": self_s("adversary.choose_round"),
        "adversary.reset.self_s": self_s("adversary.reset"),
        "core.healer.plan.calls": calls("core.healer.plan"),
        "core.healer.plan.self_s": self_s("core.healer.plan"),
        "core.healer.insertion_plan.calls": calls("core.healer.insertion_plan"),
        "core.healer.insertion_plan.self_s":
            self_s("core.healer.insertion_plan"),
        "core.network.init.self_s": self_s("core.network.init"),
        "core.network.heal.calls": calls("core.network.heal"),
        "core.network.heal.self_s": self_s("core.network.heal"),
        "core.components.round.calls": calls("core.components.round"),
        "core.components.round.self_s": self_s("core.components.round"),
        "core.components.insert_round.calls":
            calls("core.components.insert_round"),
        "core.components.insert_round.self_s":
            self_s("core.components.insert_round"),
        "core.components.labels.self_s": self_s("core.components.labels"),
        "core.components.export_state.self_s":
            self_s("core.components.export_state"),
        "core.components.fast_rounds": count("fast_rounds"),
        "core.components.slow_rounds": count("slow_rounds"),
        "core.components.deferred_rounds": count("deferred_rounds"),
        "core.components.lazy_resolutions": count("lazy_resolutions"),
        "core.components.insert_rounds": count("insert_rounds"),
        "core.components.fast_share":
            count("fast_rounds") / rounds if rounds else 0.0,
        "graph.generate.s": self_s("graph.generate"),
        "graph.mutate.calls": calls("graph.mutate"),
        "graph.mutate.self_s": self_s("graph.mutate"),
        "graph.degree_index.self_s": self_s("graph.degree_index"),
        "sim.metrics.on_event.calls": calls("sim.metrics.on_event"),
        "sim.metrics.on_event.self_s": self_s("sim.metrics.on_event"),
        "sim.metrics.finalize.self_s": self_s("sim.metrics.finalize"),
        "sim.fastpath.self_s": self_s("sim.fastpath"),
        "sim.fastpath.fused_share": share(traced_outcomes),
        "sim.experiment.run_task.self_s": self_s("sim.experiment.run_task"),
        "recovery.checkpoint.full.count": calls("recovery.checkpoint.full"),
        "recovery.checkpoint.full.self_s": self_s("recovery.checkpoint.full"),
        "recovery.checkpoint.full.bytes":
            count("recovery.checkpoint.full.bytes"),
        "recovery.checkpoint.delta.count": calls("recovery.checkpoint.delta"),
        "recovery.checkpoint.delta.self_s":
            self_s("recovery.checkpoint.delta"),
        "recovery.checkpoint.write.self_s":
            self_s("recovery.checkpoint.write"),
        "recovery.checkpoint.restore.self_s":
            self_s("recovery.checkpoint.restore"),
        "recovery.ledger.append.calls": calls("recovery.ledger.append"),
        "recovery.ledger.append.self_s": self_s("recovery.ledger.append"),
        "recovery.ledger.bytes": statistics.mean(
            o.extra.get("ledger_bytes", 0) for o in traced_outcomes),
        "trace.untraced_s": self_s("untraced"),
        "trace.wall_s": wall,
        "trace.overhead": wall / plain_wall - 1.0,
    }
    service_values = dict.fromkeys(
        (name for name, _ in PER_LAYER if name.startswith("service.")), 0.0)
    if service:
        status, late = real.extra["status_ms"], real.extra["late_ms"]
        service_values.update({
            "service.metrics_snapshot.self_s":
                manager.self_s.get("service.metrics_snapshot", 0.0),
            "service.ledger_progress.calls":
                manager.calls.get("service.ledger_progress", 0),
            "service.ledger_progress.self_s":
                manager.self_s.get("service.ledger_progress", 0.0),
            "service.poll.self_s": manager.self_s.get("service.poll", 0.0),
            "service.queue_wait_s":
                manager.counts.get("service.queue_wait_s", 0.0),
            "service.resumes": real.extra["resumes"],
            "service.retries": real.extra["retries"],
            "service.status_ms.p50": statistics.median(status),
            "service.status_ms.p90": p90(status),
            "service.poller.late_p50_ms": statistics.median(late),
            "service.poller.late_max_ms": max(late),
        })
    values.update(service_values)

    units_of = dict(PER_LAYER)
    print(f"{workload.name}: traced {units} units (plain {len(plain)}), "
          f"tracing overhead {values['trace.overhead']:+.1%}")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for key in camp.self_s:
        layer = max((x for x in LAYERS if key.startswith(x + ".")
                     or key == x), key=len, default=None)
        if layer is not None:
            layer_self[layer] += self_s(key)
    ranking = sorted(layer_self.items(), key=lambda kv: -kv[1])
    print("  layer self time per unit: " + ", ".join(
        f"{layer} {s:.3f} s" for layer, s in ranking if s > 0)
        + f", untraced {values['trace.untraced_s']:.3f} s")
    print(f"  leading layer: {ranking[0][0]}")
    for name, unit in PER_LAYER:
        print(f"  {name} = {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units_of.items()}


def run_all(seed: int, seconds: float, trace: int) -> dict | None:
    """Every workload in its own process (peak RSS stays per workload);
    returns the combined result, metrics keyed ``<workload>/<metric>``,
    or None if a workload could not run."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, ServiceJob

    if args.workload == "all":
        combined = run_all(args.seed, args.seconds, args.trace)
        if combined is None:
            return 1
        print(json.dumps(combined))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        workload = (cls(args.seed, tmp) if cls is ServiceJob
                    else cls(args.seed))
        checks = Checks()
        run = traced_run if args.trace else plain_run
        try:
            metrics = run(workload, args.seed, args.seconds, checks)
        except Exception as exc:  # the program erred: a failed attempt
            traceback.print_exc()
            checks.add(1, [f"{args.workload} raised "
                           f"{type(exc).__name__}: {exc}"])
            names = PER_LAYER if args.trace else END_TO_END_UNITS.items()
            metrics = {name: {"value": 0.0, "unit": unit}
                       for name, unit in names}
        print("provenance: " + json.dumps(
            provenance(args.workload, args.seed), sort_keys=True))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()  # only when no other run is using it
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
