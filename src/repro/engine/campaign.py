"""``panorama-campaign``: seeded mass corpora, sharding, and rollups.

A *campaign* is a fleet-scale measurement run: a deterministic mass
generator scales the synthetic kernels to tens of thousands of
programs, a ``--shard i/N`` partitioner splits one corpus across N
independent engine processes sharing one durable cache tier, and the
rollup mode merges the per-shard ``--stats-json`` exports into a single
scoreboard (verdict histogram, cache hit rates, wall-clock).

Determinism is the contract: the corpus is a pure function of
``(seed, generator version, count, knobs)``, every shard records that
provenance in its stats export, and the rollup refuses to merge shards
generated from different seeds — so any scoreboard line can be
reproduced exactly from the line itself.

The corpus is deliberately *caller-heavy*: a pool of library routines
(:func:`~repro.kernels.synthetic.make_routine`) repeats across many
app items (driver + embedded library sources), so identical routines
carry identical summary fingerprints in every item that embeds them.
That is the workload where the shared cache tier and the topology
scheduler earn their keep (``benchmarks/bench_campaign.py``).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Optional, Sequence

from ..kernels.synthetic import (
    ROUTINE_PATTERNS,
    make_driver,
    make_loop_nest,
    make_routine,
)
from ..perf import metrics
from .batch import BatchItem
from .cache import CacheStats
from .scheduler import ScheduleStats
from .telemetry import EngineTelemetry

#: bump when the generator's output changes for a fixed seed (recorded
#: in every rollup so old scoreboard lines stay reproducible against
#: the code that produced them)
GENERATOR_VERSION = 1

#: declared array extents the generator draws from
_SPANS = (200, 500, 1000)


# --------------------------------------------------------------------------- #
# generation
# --------------------------------------------------------------------------- #


def build_library(seed: int, size: int) -> list[tuple[str, str]]:
    """The campaign's routine pool: *size* ``(name, source)`` pairs.

    Names encode the draw index so the pool is collision-free; sources
    repeat patterns and spans, so distinct routines still share
    analysis structure (and distinct *items* embedding the same routine
    share fingerprints).
    """
    # string seeds hash via sha512 (deterministic across processes,
    # unlike tuple seeds which fall back to randomized hash())
    rng = random.Random(f"panorama-library-v{GENERATOR_VERSION}-{seed}")
    pool: list[tuple[str, str]] = []
    for idx in range(size):
        pattern = rng.choice(ROUTINE_PATTERNS)
        span = rng.choice(_SPANS)
        name = f"L{idx:03d}{pattern[:3].upper()}"
        pool.append((name, make_routine(name, pattern, span)))
    return pool


def generate_campaign(
    count: int,
    seed: int = 0,
    library_size: Optional[int] = None,
    max_calls: int = 3,
) -> list[BatchItem]:
    """A deterministic corpus of *count* batch items.

    The mix is caller-heavy: ~1/4 *library* items (one bare routine
    from the pool — the pure providers the topology scheduler orders
    first), ~3/5 *app* items (a driver calling 1..max_calls pool
    routines, sources embedded), and the rest self-contained
    ``make_loop_nest`` scaling programs.  Repeat runs with the same
    ``(seed, count, knobs)`` produce byte-identical corpora.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if library_size is None:
        library_size = max(4, min(64, count // 8))
    library = build_library(seed, library_size)
    rng = random.Random(
        f"panorama-campaign-v{GENERATOR_VERSION}-{seed}-{count}"
    )
    items: list[BatchItem] = []
    for k in range(count):
        roll = rng.random()
        if roll < 0.25:
            name, source = library[rng.randrange(len(library))]
            items.append(BatchItem(name=f"lib-{k:06d}-{name}", source=source))
        elif roll < 0.85:
            picks = rng.sample(
                range(len(library)), k=rng.randint(1, min(max_calls, len(library)))
            )
            callees = [library[i][0] for i in picks]
            source = make_driver(
                f"APP{k:06d}", callees, trips=rng.choice((20, 50, 80))
            ) + "".join(library[i][1] for i in picks)
            items.append(BatchItem(name=f"app-{k:06d}", source=source))
        else:
            source = make_loop_nest(
                depth=rng.randint(1, 3),
                width=rng.randint(1, 4),
                routines=rng.randint(1, 3),
            )
            items.append(BatchItem(name=f"nest-{k:06d}", source=source))
    return items


# --------------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------------- #


def parse_shard(spec: str) -> tuple[int, int]:
    """``"i/N"`` → ``(i, N)``; 1-based, validated."""
    head, sep, tail = spec.partition("/")
    if not sep:
        raise ValueError(f"shard spec {spec!r} is not of the form i/N")
    try:
        index, total = int(head), int(tail)
    except ValueError:
        raise ValueError(f"shard spec {spec!r} is not of the form i/N") from None
    if total < 1 or not 1 <= index <= total:
        raise ValueError(
            f"shard spec {spec!r} out of range (need 1 <= i <= N)"
        )
    return index, total


def shard_items(
    items: Sequence[BatchItem], index: int, total: int
) -> list[BatchItem]:
    """Round-robin partition: shard *index* of *total* (1-based).

    Round-robin (not contiguous blocks) so every shard sees the same
    mix of item kinds — shard wall-clocks stay comparable and no shard
    is accidentally starved of library items.
    """
    return list(items[index - 1 :: total])


# --------------------------------------------------------------------------- #
# rollup
# --------------------------------------------------------------------------- #


def merge_rollups(payloads: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Merge per-shard ``--stats-json`` payloads into one scoreboard.

    Shards fold as :class:`EngineTelemetry` groups, by the engine's own
    rules; per-run labels become distinct-value lists, and wall-clock
    reports both the fleet total and the critical-path max.  Shards
    carrying conflicting campaign provenance (different seed or
    generator version) are refused: a scoreboard must describe exactly
    one reproducible corpus.
    """
    if not payloads:
        raise ValueError("nothing to merge")
    shards = [metrics.from_dict(EngineTelemetry, p) for p in payloads]
    total = metrics.from_dict(EngineTelemetry, payloads[0])
    for shard in shards[1:]:
        metrics.fold(total, shard)
    out = total.as_dict()
    del out["cache_backend"], out["campaign"], out["interrupted"]
    del out["sched"]["mode"]
    out["shards"] = len(shards)
    out["wall_seconds"] = {
        "total": total.wall_seconds,
        "max": max(s.wall_seconds for s in shards),
    }
    hits, misses = total.cache.hits, total.cache.misses
    out["cache"]["hit_rate"] = (
        round(hits / (hits + misses), 4) if hits + misses else 0.0
    )
    out["cache_backends"] = sorted({s.cache_backend for s in shards})
    out["sched"]["modes"] = sorted({s.sched.mode for s in shards})
    tagged = [s.campaign for s in shards if s.campaign]
    if tagged:
        identity = {
            (c.get("seed"), c.get("generator_version"), c.get("count"))
            for c in tagged
        }
        if len(identity) > 1:
            raise ValueError(
                f"refusing to merge shards from different campaigns: {identity}"
            )
        seed, version, count = next(iter(identity))
        out["campaign"] = {
            "seed": seed,
            "generator_version": version,
            "count": count,
            "shards": sorted(c.get("shard", "1/1") for c in tagged),
        }
    return out


def load_rollup(paths: Sequence[str]) -> dict[str, Any]:
    """Read per-shard stats files and merge them."""
    payloads = []
    for path in paths:
        with open(path) as fh:
            payloads.append(json.load(fh))
    return merge_rollups(payloads)


def format_scoreboard(rollup: dict[str, Any]) -> str:
    """Human-readable scoreboard for one merged campaign."""
    lines = []
    camp = rollup.get("campaign", {})
    if camp:
        lines.append(
            f"campaign: seed={camp['seed']} "
            f"generator=v{camp['generator_version']} count={camp['count']} "
            f"shards={','.join(camp.get('shards', []))}"
        )
    lines.append(
        f"{rollup['shards']} shard(s): {rollup['files']} file(s), "
        f"{rollup['errors']} error(s), {rollup['loops']} loop(s) "
        f"({rollup['parallel_loops']} parallel)"
    )
    verdicts = rollup.get("verdicts", {})
    if verdicts:
        hist = ", ".join(
            f"{k}={int(v)}" for k, v in sorted(verdicts.items())
        )
        lines.append(f"verdicts: {hist}")
    cache = metrics.from_dict(CacheStats, rollup.get("cache", {}))
    lines.append(
        f"cache[{'/'.join(rollup.get('cache_backends', []))}]: "
        f"{int(cache.hits)} hit(s), {int(cache.misses)} miss(es), "
        f"hit rate {rollup.get('cache', {}).get('hit_rate', 0.0):.1%}"
    )
    sched = metrics.from_dict(ScheduleStats, rollup.get("sched", {}))
    lines.append(
        f"sched[{'/'.join(rollup.get('sched', {}).get('modes', []))}]: "
        f"{sched.edges} edge(s), {sched.gated_items} gated, "
        f"{sched.topo_hits} topo hit(s)"
    )
    wall = rollup.get("wall_seconds", {})
    lines.append(
        f"wall: {wall.get('total', 0.0):.2f}s total, "
        f"{wall.get('max', 0.0):.2f}s critical path"
    )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


def build_arg_parser() -> argparse.ArgumentParser:
    from .. import __version__
    from .backends import BACKEND_KINDS
    from .scheduler import SCHEDULE_MODES

    parser = argparse.ArgumentParser(
        prog="panorama-campaign",
        description=(
            "Seeded mass-analysis campaigns: generate a deterministic "
            "corpus, run one shard of it, or merge per-shard stats into "
            "a scoreboard."
        ),
    )
    parser.add_argument(
        "--count", type=int, default=100, metavar="N",
        help="corpus size before sharding (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="generator seed; recorded in the stats rollup (default 0)",
    )
    parser.add_argument(
        "--library-size", type=int, metavar="N",
        help="routine-pool size (default: scaled from --count)",
    )
    parser.add_argument(
        "--shard", metavar="i/N",
        help="run only shard i of N (1-based round-robin partition)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1: in-process)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="durable summary-cache directory (share it across shards)",
    )
    parser.add_argument(
        "--cache-backend", choices=list(BACKEND_KINDS),
        help="durable-tier implementation (default: disk)",
    )
    parser.add_argument(
        "--schedule", choices=list(SCHEDULE_MODES), default="auto",
        help="dispatch order: topology-aware, arbitrary, or auto",
    )
    parser.add_argument(
        "--no-machine", action="store_true",
        help="skip cost/speedup estimation",
    )
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write this shard's telemetry (feed the files to --rollup)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH",
        help="journal shard progress to this append-only JSONL ledger "
        "(one record per item transition; feed it to --resume)",
    )
    parser.add_argument(
        "--resume", metavar="LEDGER",
        help="resume an interrupted shard from its ledger: completed "
        "items are served from the journal, the rest re-dispatched; "
        "refuses a ledger from a different campaign/shard",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, give in-flight items this long to "
        "finish before abandoning them (default 10; exit code 5)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the generated item names and exit (no analysis)",
    )
    parser.add_argument(
        "--rollup", metavar="OUT", nargs="?", const="-",
        help="merge per-shard stats files (positionals) into OUT "
        "('-' or omitted value: stdout only)",
    )
    parser.add_argument(
        "stats_files", nargs="*", metavar="STATS.JSON",
        help="per-shard stats files to merge (with --rollup)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)

    if args.rollup is not None:
        if not args.stats_files:
            print(
                "panorama-campaign: --rollup needs per-shard stats files",
                file=sys.stderr,
            )
            return 2
        try:
            rollup = load_rollup(args.stats_files)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"panorama-campaign: rollup failed: {exc}", file=sys.stderr)
            return 2
        if args.rollup != "-":
            with open(args.rollup, "w") as fh:
                json.dump(rollup, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(format_scoreboard(rollup))
        return 0

    try:
        corpus = generate_campaign(
            args.count, seed=args.seed, library_size=args.library_size
        )
    except ValueError as exc:
        print(f"panorama-campaign: {exc}", file=sys.stderr)
        return 2
    shard_spec = args.shard or "1/1"
    try:
        index, total = parse_shard(shard_spec)
    except ValueError as exc:
        print(f"panorama-campaign: {exc}", file=sys.stderr)
        return 2
    items = shard_items(corpus, index, total)

    if args.list:
        for item in items:
            print(item.name)
        return 0

    from ..dataflow import AnalysisOptions
    from ..errors import EXIT_INTERRUPTED
    from .batch import BatchEngine
    from .cli import install_drain_handlers, prepare_ledger
    from .ledger import run_identity

    options = AnalysisOptions()
    identity = run_identity(
        "campaign",
        items,
        options,
        machine=not args.no_machine,
        campaign={
            "seed": args.seed,
            "generator_version": GENERATOR_VERSION,
            "count": args.count,
            "shard": shard_spec,
        },
    )
    try:
        writer, replay = prepare_ledger(
            args.ledger, args.resume, identity, "panorama-campaign"
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    engine = BatchEngine(
        options,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        run_machine_model=not args.no_machine,
        cache_backend=args.cache_backend,
        schedule=args.schedule,
        ledger=writer,
        resume=replay,
        drain_timeout=args.drain_timeout,
    )
    restore_signals = install_drain_handlers(engine)
    try:
        report = engine.run(items)
    finally:
        restore_signals()
        if writer is not None:
            writer.close()
    tele = report.telemetry
    tele.campaign = {
        "seed": args.seed,
        "generator_version": GENERATOR_VERSION,
        "count": args.count,
        "shard": shard_spec,
        "items": len(items),
        "library_size": args.library_size,
    }
    if args.stats_json:
        tele.write_json(args.stats_json)
    print(
        f"shard {shard_spec}: {tele.summary_line()}"
    )
    for res in report.results:
        if not res.ok:
            print(
                f"--- {res.name}: ERROR ({res.error_kind}) ---\n{res.error}",
                file=sys.stderr,
            )
    code = report.exit_code()
    if code == EXIT_INTERRUPTED:
        ledger_path = args.ledger or args.resume
        hint = (
            f" (resume with --resume {ledger_path})" if ledger_path else ""
        )
        print(
            f"panorama-campaign: shard {shard_spec} interrupted; finalized "
            f"progress is flushed and consistent{hint} (exit 5)",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
