"""Command-line interface.

Every component argument (``--generator``, ``--healer``, ``--adversary``)
accepts a registry name *or* a spec string carrying constructor
arguments (see :mod:`repro.registry`), so new scenarios need no new
flags.

Examples
--------
Regenerate a paper figure (small, fast settings)::

    python -m repro.cli figure fig8 --sizes 50 100 --reps 5 --jobs 4

Full-fidelity regeneration with CSVs::

    python -m repro.cli figure fig8 --out results/ --jobs 8

Run a one-off simulation and print its metrics::

    python -m repro.cli simulate --generator preferential_attachment \
        --n 200 --healer dash --adversary neighbor-of-max --seed 7

Run a wave campaign (footnote 1's simultaneous-failure regime)::

    python -m repro.cli simulate --n 500 --healer dash \
        --adversary "random-wave:size=8,schedule=geometric" --seed 7

Run crash-safe (checkpoint every 8 rounds + append-only ledger), and
resume after a crash::

    python -m repro.cli simulate --n 5000 --healer dash \
        --adversary max-node --checkpoint-every 8 --checkpoint-dir state/
    python -m repro.cli resume state/campaign.jsonl

List available components::

    python -m repro.cli list
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from repro.adversary import ADVERSARIES
from repro.core.registry import HEALERS
from repro.errors import ConfigurationError
from repro.graph.generators import GENERATORS
from repro.registry import component_registries
from repro.sim.engine import run_campaign
from repro.sim.metrics import ConnectivityMetric, default_metrics
from repro.utils.rng import derive_seed
from repro.version import PAPER, __version__

__all__ = ["main", "build_parser", "parse_duration"]

#: where `repro serve` keeps job state unless --root says otherwise
DEFAULT_SERVICE_ROOT = ".repro-service"
DEFAULT_SERVICE_SOCKET = f"{DEFAULT_SERVICE_ROOT}/service.sock"


def _add_socket_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket",
        default=DEFAULT_SERVICE_SOCKET,
        help="the service's Unix socket (default %(default)s)",
    )


def _backend_names() -> list[str]:
    """Known graph backend names, for ``--backend`` choices."""
    from repro.graph.array_backend import BACKENDS

    return sorted(BACKENDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-selfheal",
        description=f"Self-healing network reproduction of: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("name", help="figure id (see `list`)")
    fig.add_argument("--sizes", type=int, nargs="+", default=None)
    fig.add_argument("--depths", type=int, nargs="+", default=None,
                     help="tree depths (theorem2 only)")
    fig.add_argument("--reps", type=int, default=None)
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--jobs", type=int, default=None)
    fig.add_argument("--out", default=None, help="directory for CSV output")
    fig.add_argument(
        "--quiet", action="store_true", help="table only, no chart"
    )

    sim = sub.add_parser("simulate", help="run one attack/heal campaign")
    sim.add_argument("--generator", default="preferential_attachment",
                     help="generator name or spec string (see `list`)")
    sim.add_argument("--n", type=int, default=100)
    sim.add_argument("--m", type=int, default=None,
                     help="generator edge parameter (where applicable; "
                          "default 2)")
    sim.add_argument("--healer", default="dash",
                     help="healer name or spec string (see `list`)")
    sim.add_argument("--adversary", default="neighbor-of-max",
                     help="adversary name or spec string, e.g. "
                          "'random-wave:size=8,schedule=geometric'")
    sim.add_argument("--backend", default=None, choices=_backend_names(),
                     help="graph storage backend (default: the "
                          "generator spec's choice, else 'object')")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-deletions", type=int, default=None,
                     help="node-deletion budget (single-victim adversaries)")
    sim.add_argument("--wave-size", type=int, default=8,
                     help="victims per wave (wave adversaries only)")
    sim.add_argument("--max-waves", type=int, default=None,
                     help="wave budget (wave adversaries only)")
    sim.add_argument("--checkpoint-every", type=int, default=None,
                     help="write a full-state checkpoint every N rounds "
                          "(requires --checkpoint-dir)")
    sim.add_argument("--checkpoint-dir", default=None,
                     help="directory for checkpoints; also enables the "
                          "append-only campaign ledger "
                          "(<dir>/campaign.jsonl)")

    res = sub.add_parser(
        "resume",
        help="resume a crashed campaign from its ledger + last intact "
             "checkpoint",
    )
    res.add_argument("ledger", help="path to the campaign's ledger "
                                    "(campaign.jsonl)")
    res.add_argument("--no-checkpoints", action="store_true",
                     help="finish the campaign without writing further "
                          "checkpoints")

    sub.add_parser(
        "list",
        help="list figures, healers, adversaries, generators, "
             "wave schedules, metrics",
    )

    srv = sub.add_parser(
        "serve",
        help="run the campaign service (job queue + worker supervision)",
    )
    srv.add_argument("--root", default=DEFAULT_SERVICE_ROOT,
                     help="service state directory (jobs, ledgers, "
                          "checkpoints; default %(default)s)")
    srv.add_argument("--socket", default=None,
                     help="Unix socket path (default <root>/service.sock)")
    srv.add_argument("--stdio", action="store_true",
                     help="serve the JSONL protocol on stdin/stdout "
                          "instead of a socket")
    srv.add_argument("--workers", type=int, default=2,
                     help="max concurrent worker processes "
                          "(default %(default)s)")
    srv.add_argument("--checkpoint-every", type=int, default=4,
                     help="worker checkpoint cadence in rounds "
                          "(default %(default)s)")
    srv.add_argument("--heartbeat-ttl", type=float, default=10.0,
                     help="seconds without a heartbeat before a worker "
                          "is declared dead (default %(default)s)")
    srv.add_argument("--queue-capacity", type=int, default=256,
                     help="bounded queue size; submissions beyond it "
                          "are refused (default %(default)s)")
    srv.add_argument("--retries", type=int, default=2,
                     help="retry budget per job for fault-type failures "
                          "(default %(default)s)")
    srv.add_argument("--backoff", type=float, default=0.5,
                     help="retry backoff base in seconds "
                          "(default %(default)s)")
    srv.add_argument("--retention", default=None, metavar="AGE",
                     help="prune terminal job directories older than "
                          "this ('6h', '7d', ...; default: keep forever)")

    sbm = sub.add_parser(
        "submit", help="submit one campaign to a running service"
    )
    _add_socket_arg(sbm)
    sbm.add_argument("--generator", default="preferential_attachment",
                     help="generator name or spec string")
    sbm.add_argument("--n", type=int, default=100)
    sbm.add_argument("--m", type=int, default=None)
    sbm.add_argument("--healer", default="dash")
    sbm.add_argument("--adversary", default="neighbor-of-max",
                     help="adversary name or spec string, e.g. "
                          "'random-wave:size=8,schedule=geometric'")
    sbm.add_argument("--seed", type=int, default=0)
    sbm.add_argument("--stop-alive", type=int, default=0)
    sbm.add_argument("--max-rounds", type=int, default=None)
    sbm.add_argument("--max-deletions", type=int, default=None)
    sbm.add_argument("--metric", action="append", default=None,
                     help="extra metric spec (repeatable)")
    sbm.add_argument("--priority", type=int, default=0,
                     help="higher runs first (default %(default)s)")
    sbm.add_argument("--watch", action="store_true",
                     help="stream the job's rounds after submitting")

    sta = sub.add_parser(
        "status",
        help="show one job's status, all jobs, or service metrics",
    )
    _add_socket_arg(sta)
    sta.add_argument("job", nargs="?", default=None,
                     help="job id (omit to list all jobs)")
    sta.add_argument("--metrics", action="store_true",
                     help="print the service's observability counters")

    wat = sub.add_parser(
        "watch", help="stream a job's per-round records live"
    )
    _add_socket_arg(wat)
    wat.add_argument("job", help="job id")
    wat.add_argument("--timeout", type=float, default=None,
                     help="give up after this many idle seconds")

    can = sub.add_parser("cancel", help="cancel a queued or running job")
    _add_socket_arg(can)
    can.add_argument("job", help="job id")

    gc = sub.add_parser(
        "gc",
        help="prune terminal job directories older than a horizon "
             "(queued/running jobs are never touched)",
    )
    gc.add_argument("--root", default=DEFAULT_SERVICE_ROOT,
                    help="service state directory (default %(default)s)")
    gc.add_argument("--older-than", required=True, metavar="AGE",
                    help="age horizon: seconds, or suffixed like "
                         "'90s', '15m', '6h', '7d'")
    gc.add_argument("--dry-run", action="store_true",
                    help="list what would be removed without removing it")
    return parser


def parse_duration(text: str) -> float:
    """``'90'``/``'90s'``/``'15m'``/``'6h'``/``'7d'`` → seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    raw = text.strip().lower()
    scale = 1.0
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        seconds = float(raw) * scale
    except ValueError:
        raise ConfigurationError(
            f"cannot parse duration {text!r} "
            "(want seconds or e.g. '90s', '15m', '6h', '7d')"
        ) from None
    # NaN slips past the `< 0` check (every comparison is False) and
    # then poisons every `updated_at < cutoff` in JobStore.gc the same
    # way, so `gc --older-than nan` would silently never prune;
    # `inf` would be an explicit "never prune" nobody asked for.
    if not math.isfinite(seconds):
        raise ConfigurationError(
            f"duration must be finite, got {text!r}"
        )
    if seconds < 0:
        raise ConfigurationError(f"duration must be >= 0, got {text!r}")
    return seconds


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.harness import FIGURES

    if args.name not in FIGURES:
        print(
            f"unknown figure {args.name!r}; "
            f"known: {', '.join(sorted(FIGURES))}",
            file=sys.stderr,
        )
        return 2
    import inspect

    fn = FIGURES[args.name]
    supported = inspect.signature(fn).parameters
    kwargs: dict = {}
    if args.depths and "depths" in supported:
        kwargs["depths"] = tuple(args.depths)
    if args.sizes and "sizes" in supported:
        kwargs["sizes"] = tuple(args.sizes)
    if args.reps and "repetitions" in supported:
        kwargs["repetitions"] = args.reps
    if args.seed is not None and "master_seed" in supported:
        kwargs["master_seed"] = args.seed
    if "jobs" in supported:
        kwargs["jobs"] = args.jobs
    if "out_dir" in supported:
        kwargs["out_dir"] = args.out
    if "progress" in supported:
        kwargs["progress"] = not args.quiet
    out = fn(**kwargs)
    figures = out if isinstance(out, tuple) else (out,)
    for f in figures:
        print(f.table)
        if not args.quiet:
            print(f.chart)
        if f.csv_path:
            print(f"[csv] {f.csv_path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    # Build every component from its spec string; the registries parse
    # arguments, check names, and inject derived seeds where accepted.
    try:
        force = {"n": args.n}
        if args.m is not None:
            force["m"] = args.m
        if args.backend is not None:
            # Forced, not defaulted: a generator spec that also pins
            # backend=... conflicts and fails fast in Registry.make.
            force["backend"] = args.backend
        graph = GENERATORS.make(
            args.generator,
            seed=derive_seed(args.seed, "graph"),
            force=force,
            defaults={"m": 2, "p": 0.05},
        )
        healer = HEALERS.make(args.healer)
        adversary = ADVERSARIES.make(
            args.adversary,
            seed=derive_seed(args.seed, "attack"),
            defaults={"size": args.wave_size},
        )
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2

    is_wave = getattr(adversary, "batch_rounds", False)
    if is_wave and args.max_deletions is not None:
        print(
            "--max-deletions is a node budget for single-victim "
            "adversaries; use --max-waves with wave adversaries",
            file=sys.stderr,
        )
        return 2
    if not is_wave and args.max_waves is not None:
        print(
            "--max-waves is a round budget for wave adversaries; use "
            "--max-deletions with single-victim adversaries",
            file=sys.stderr,
        )
        return 2

    if args.checkpoint_every is not None and args.checkpoint_dir is None:
        print("--checkpoint-every requires --checkpoint-dir", file=sys.stderr)
        return 2

    recovery: dict = {}
    if args.checkpoint_dir is not None:
        from pathlib import Path

        ckpt_dir = Path(args.checkpoint_dir)
        recovery["checkpoint_dir"] = ckpt_dir
        recovery["checkpoint_every"] = (
            16 if args.checkpoint_every is None else args.checkpoint_every
        )
        recovery["ledger"] = ckpt_dir / "campaign.jsonl"

    try:
        result = run_campaign(
            graph,
            healer,
            adversary,
            id_seed=derive_seed(args.seed, "ids"),
            metrics=default_metrics() + [ConnectivityMetric()],
            max_rounds=args.max_waves,
            max_deletions=args.max_deletions,
            **recovery,
        )
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    _print_result(result)
    return 0


def _print_result(result) -> None:
    print(f"initial n        : {result.initial_n}")
    print(f"deletions        : {result.deletions}")
    print(f"final alive      : {result.final_alive}")
    print(f"peak δ           : {result.peak_delta}")
    for key in sorted(result.values):
        print(f"{key:<24s}: {result.values[key]:.3f}")


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.errors import CheckpointError
    from repro.recovery import resume_from_ledger

    try:
        result = resume_from_ledger(
            args.ledger, keep_checkpointing=not args.no_checkpoints
        )
    except CheckpointError as exc:
        print(exc, file=sys.stderr)
        return 2
    _print_result(result)
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.harness import FIGURES

    labels = {
        "healer": "healers",
        "adversary": "adversaries",
        "generator": "generators",
        "wave-schedule": "wave schedules",
        "metric": "metrics",
    }
    print("figures       :", ", ".join(sorted(FIGURES)))
    for family, registry in component_registries().items():
        print(
            f"{labels.get(family, family):<14s}:",
            ", ".join(registry.names()),
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.manager import CampaignService
    from repro.service.protocol import serve_socket, serve_stdio
    from repro.sim.parallel import RetryPolicy

    try:
        retention = (
            None if args.retention is None
            else parse_duration(args.retention)
        )
        service = CampaignService(
            args.root,
            max_workers=args.workers,
            queue_capacity=args.queue_capacity,
            checkpoint_every=args.checkpoint_every,
            heartbeat_ttl=args.heartbeat_ttl,
            retry_policy=RetryPolicy(
                retries=args.retries, backoff=args.backoff
            ),
            retention=retention,
        )
    except ValueError as exc:  # ConfigurationError included
        print(exc, file=sys.stderr)
        return 2
    if args.stdio:
        serve_stdio(service)
        return 0
    socket_path = args.socket or str(Path(args.root) / "service.sock")
    print(f"serving on {socket_path} (root: {args.root})", file=sys.stderr)
    try:
        serve_socket(service, socket_path)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        service.shutdown()
    return 0


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.socket)


def _print_stream(client, job_id, timeout=None) -> int:
    for record in client.watch(job_id, timeout=timeout):
        kind = record.get("type")
        if kind == "round":
            print(
                f"[round {record['round']}] "
                f"alive={record.get('alive')} "
                f"deletions={record.get('deletions')}"
            )
        elif kind == "checkpoint":
            print(f"[checkpoint @ round {record['round']}]")
        elif kind == "resumed":
            print(f"[resumed @ round {record['round']}]")
        elif kind == "end":
            print("campaign complete:")
            for key in sorted(record.get("values", {})):
                print(f"  {key:<24s}: {record['values'][key]:.3f}")
        elif record.get("done"):
            print(f"[{record['job']}] final state: {record['state']}")
            return 0 if record["state"] == "done" else 1
    return 1


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.request import CampaignRequest

    generator_params: dict = {"n": args.n}
    if args.m is not None:
        generator_params["m"] = args.m
    try:
        request = CampaignRequest(
            generator=args.generator,
            healer=args.healer,
            adversary=args.adversary,
            generator_params=generator_params,
            extra_metrics=tuple(args.metric or ()),
            seed=args.seed,
            stop_alive=args.stop_alive,
            max_rounds=args.max_rounds,
            max_deletions=args.max_deletions,
            priority=args.priority,
        )
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    client = _client(args)
    job_id, created = client.submit(request)
    note = "" if created else " (deduped onto existing job)"
    print(f"submitted: {job_id}{note}")
    if args.watch:
        return _print_stream(client, job_id)
    return 0


def _print_job(view: dict) -> None:
    line = (
        f"{view['job']}  {view['state']:<12s} "
        f"{view['healer']} vs {view['adversary']}  "
        f"rounds={view['rounds']} resumes={view['resumes']} "
        f"retries={view['attempts']}"
    )
    print(line)
    if view.get("error"):
        print(f"  error: {view['error']}")


def _cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.metrics:
        snapshot = client.metrics()
        jobs = snapshot.pop("jobs", {})
        for key in sorted(snapshot):
            value = snapshot[key]
            shown = f"{value:.3f}" if isinstance(value, float) else value
            print(f"{key:<16s}: {shown}")
        for job_id in sorted(jobs):
            j = jobs[job_id]
            print(
                f"  {job_id}: {j['state']} rounds={j['rounds']} "
                f"resumes={j['resumes']} retries={j['retries']}"
            )
        return 0
    if args.job is None:
        views = client.list_jobs()
        if not views:
            print("no jobs")
        for view in views:
            _print_job(view)
        return 0
    _print_job(client.status(args.job))
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    return _print_stream(_client(args), args.job, timeout=args.timeout)


def _cmd_cancel(args: argparse.Namespace) -> int:
    view = _client(args).cancel(args.job)
    _print_job(view)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    import time

    from repro.service.jobs import JobStore

    try:
        horizon = parse_duration(args.older_than)
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    store = JobStore(args.root)
    if args.dry_run:
        cutoff = time.time() - horizon
        doomed = [
            job.job_id
            for job in store.load_all()
            if job.state.terminal and job.updated_at < cutoff
        ]
        for job_id in doomed:
            print(f"would remove {job_id}")
        print(f"{len(doomed)} job(s) would be removed")
        return 0
    removed = store.gc(horizon)
    for job_id in removed:
        print(f"removed {job_id}")
    print(f"{len(removed)} job(s) removed")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "gc":
        return _cmd_gc(args)
    service_commands = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
    }
    if args.command in service_commands:
        from repro.errors import ServiceError

        try:
            return service_commands[args.command](args)
        except ServiceError as exc:
            print(exc, file=sys.stderr)
            return 2
        except BrokenPipeError:
            # stdout was closed mid-stream (`repro watch ... | head`);
            # not an error worth a traceback.
            return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
