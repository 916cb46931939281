"""``panorama-batch``: bulk analysis with workers and a persistent cache.

Examples::

    panorama-batch a.f b.f c.f --jobs 4 --cache-dir ~/.panorama-cache
    panorama-batch --kernels --jobs 4 --stats-json stats.json
    panorama-batch --kernels --json          # full machine-readable output
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .. import __version__
from ..dataflow.context import add_option_flags, options_from_args
from ..driver.report import format_stats, format_table, yes_no
from ..errors import EXIT_INTERRUPTED, EXIT_USAGE
from ..resilience import faults
from ..resilience.faults import ENV_VAR
from . import ledger as ledger_mod
from .backends import BACKEND_KINDS
from .batch import BatchEngine, items_from_kernel_registry, items_from_paths


def build_arg_parser() -> argparse.ArgumentParser:
    """The panorama-batch CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="panorama-batch",
        description=(
            "Batch front end to the Panorama analyzer: fan Fortran sources "
            "across worker processes with a persistent, content-addressed "
            "summary cache."
        ),
    )
    parser.add_argument(
        "sources", nargs="*", help="Fortran source files to analyze"
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also analyze the built-in Perfect-benchmark kernel suite",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="persistent summary cache directory (shared by workers)",
    )
    parser.add_argument(
        "--cache-backend",
        choices=BACKEND_KINDS,
        help="durable cache tier: pickle files (disk) or the "
        "multi-process SQLite tier (shared); default disk",
    )
    parser.add_argument(
        "--schedule",
        choices=["auto", "topo", "arbitrary"],
        default="auto",
        help="dispatch order: topo analyzes callee-providing items "
        "first so callers hit warm summaries (default auto)",
    )
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        help="write aggregated telemetry (timings, stats, cache counters)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit all results as JSON on stdout instead of tables",
    )
    add_option_flags(parser)
    parser.add_argument(
        "--no-machine",
        action="store_true",
        help="skip cost/speedup estimation",
    )
    resilience = parser.add_argument_group(
        "resilience (docs/robustness.md)"
    )
    resilience.add_argument(
        "--timeout-per-item",
        type=float,
        metavar="SECONDS",
        help="declare an in-flight item hung after this long "
        "(pool mode only; default: wait forever)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry a failed item up to N times before quarantining it "
        "(default 2; source errors are never retried)",
    )
    resilience.add_argument(
        "--inject-faults",
        metavar="PLAN",
        help="fault plan, e.g. 'worker.crash:MDG@1;cache.corrupt' "
        f"(equivalent to setting ${ENV_VAR}; chaos testing only)",
    )
    resilience.add_argument(
        "--ledger",
        metavar="PATH",
        help="journal run progress to this append-only JSONL ledger "
        "(one record per item transition; feed it to --resume)",
    )
    resilience.add_argument(
        "--resume",
        metavar="LEDGER",
        help="resume an interrupted run from its ledger: completed "
        "items are served from the journal, in-flight and failed ones "
        "re-dispatched; refuses a ledger written for a different run",
    )
    resilience.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, give in-flight items this long to "
        "finish before abandoning them (default 10; exit code 5)",
    )
    audit = parser.add_argument_group("auditing (docs/auditing.md)")
    audit.add_argument(
        "--audit",
        action="store_true",
        help="run the static race auditor over every parallel verdict in "
        "every item (PAN1xx/PAN2xx/PAN3xx diagnostics)",
    )
    audit.add_argument(
        "--sarif",
        metavar="PATH",
        help="write all audit diagnostics as one SARIF 2.1.0 log "
        "(implies --audit)",
    )
    audit.add_argument(
        "--strict-audit",
        action="store_true",
        help="exit 4 when the audit finds a confirmed disagreement or an "
        "internal-consistency violation (implies --audit)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def prepare_ledger(ledger_path, resume_path, identity, prog):
    """``(writer, replay)`` for the --ledger/--resume flags.

    Raises ``SystemExit(EXIT_USAGE)`` after printing the reason when the
    flags conflict, the ledger cannot be opened, or — the crucial
    refusal — its identity header describes a different run.
    """
    if resume_path:
        if ledger_path and os.path.abspath(ledger_path) != os.path.abspath(
            resume_path
        ):
            print(
                f"{prog}: --ledger and --resume must name the same file",
                file=sys.stderr,
            )
            raise SystemExit(EXIT_USAGE)
        try:
            replay = ledger_mod.replay(resume_path)
            ledger_mod.verify_identity(replay.header, identity)
        except OSError as exc:
            print(f"{prog}: cannot resume: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        except ledger_mod.LedgerMismatch as exc:
            print(f"{prog}: refusing to resume: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
        return (
            ledger_mod.LedgerWriter(resume_path, identity, resume=True),
            replay,
        )
    if ledger_path:
        try:
            return ledger_mod.LedgerWriter(ledger_path, identity), None
        except OSError as exc:
            print(f"{prog}: cannot open ledger: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return None, None


def install_drain_handlers(engine: BatchEngine):
    """SIGTERM/SIGINT → graceful drain; returns a restore callback.

    The handler only sets an event the run loop polls, so it is
    async-signal-safe; in-flight items finish inside the engine's
    drain timeout and the run exits interrupted-but-consistent.
    """
    previous = {}

    def _drain(signum, frame):
        engine.request_drain()

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _drain)
        except (ValueError, OSError):  # non-main thread, or unsupported
            pass

    def restore():
        for sig, handler in previous.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass

    return restore


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_arg_parser().parse_args(argv)
    try:
        items = items_from_paths(args.sources)
    except OSError as exc:
        print(f"panorama-batch: cannot read source: {exc}", file=sys.stderr)
        return 2
    if args.kernels:
        items.extend(items_from_kernel_registry())
    if not items:
        print("panorama-batch: no sources (pass files or --kernels)",
              file=sys.stderr)
        return 2

    if args.inject_faults:
        # the env var is the transport: pool workers inherit it
        os.environ[ENV_VAR] = args.inject_faults
        faults.reset()

    options = options_from_args(args)
    run_audit = bool(args.audit or args.sarif or args.strict_audit)
    identity = ledger_mod.run_identity(
        "batch", items, options, audit=run_audit, machine=not args.no_machine
    )
    try:
        writer, replay = prepare_ledger(
            args.ledger, args.resume, identity, "panorama-batch"
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    engine = BatchEngine(
        options,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        run_machine_model=not args.no_machine,
        timeout_per_item=args.timeout_per_item,
        max_attempts=max(1, args.retries + 1),
        audit=run_audit,
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

    if args.json:
        print(
            json.dumps(
                {
                    "results": [
                        res.payload
                        if res.ok
                        else {
                            "name": res.name,
                            "error": res.error,
                            "error_kind": res.error_kind,
                            "attempts": res.attempts,
                            "quarantined": res.quarantined,
                        }
                        for res in report.results
                    ],
                    "telemetry": report.telemetry.as_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for res in report.results:
            if not res.ok:
                tag = res.error_kind or "error"
                flag = " [quarantined]" if res.quarantined else ""
                print(
                    f"--- {res.name}: ERROR ({tag}, "
                    f"{res.attempts} attempt(s)){flag} ---\n{res.error}",
                    file=sys.stderr,
                )
                continue
            rows = [
                [
                    row["loop"],
                    row["var"],
                    row["status"],
                    yes_no(row["used_dataflow"]),
                    ", ".join(row["privatized"]),
                    f"{row['speedup']:.1f}x" if row["parallel"] else "-",
                ]
                for row in res.rows()
            ]
            print(
                format_table(
                    ["loop", "index", "status", "dataflow", "privatized",
                     "est. speedup"],
                    rows,
                    title=f"Panorama verdicts ({res.name})",
                )
            )
            print()
        print(report.telemetry.summary_line())
        tele = report.telemetry
        print(
            format_stats(
                tele.stats,
                cache_backend=tele.cache_backend,
                symbolic=tele.symbolic,
            )
        )
        if run_audit:
            a = tele.audit
            print(
                f"audit: {a.loops_audited} loop(s), "
                f"{a.pairs_checked} pair(s); "
                f"{a.confirmed} confirmed, {a.guarded} guarded, "
                f"{a.undecided} undecided, "
                f"{a.oracle_conflicts} oracle conflict(s), "
                f"{a.lint} lint, {a.sanitizer} sanitizer"
            )
            from ..diagnostics import render_text

            diags = report.audit_diagnostics()
            if diags:
                print(render_text(diags))

    if run_audit and args.sarif:
        from ..diagnostics import write_sarif

        write_sarif(report.audit_diagnostics(), args.sarif)

    if args.stats_json:
        report.telemetry.write_json(args.stats_json)
    code = report.exit_code()
    if code in (0, 3) and args.strict_audit and report.audit_errors():
        # a soundness finding trumps the degraded-verdicts code
        code = 4
        print(
            "panorama-batch: strict audit failed: "
            f"{len(report.audit_errors())} error-severity diagnostic(s) "
            "(exit 4)",
            file=sys.stderr,
        )
    elif code == 3:
        print(
            "panorama-batch: completed with degradations "
            "(see docs/robustness.md; exit 3)",
            file=sys.stderr,
        )
    elif code == EXIT_INTERRUPTED:
        ledger_path = args.ledger or args.resume
        hint = (
            f" (resume with --resume {ledger_path})" if ledger_path else ""
        )
        print(
            "panorama-batch: interrupted; finalized progress is flushed "
            f"and consistent{hint} (exit 5)",
            file=sys.stderr,
        )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
