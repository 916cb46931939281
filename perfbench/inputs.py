"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: the same seed
gives byte-identical programs, orders and request streams.  The
program under test only ever receives the generated sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.batch import BatchItem
from repro.engine.campaign import generate_campaign
from repro.kernels import FRONTIER_KERNELS, KERNELS
from repro.kernels.synthetic import ROUTINE_PATTERNS, make_driver, make_routine

#: items per campaign corpus; each pass of the campaign workload is one
#: cold campaign over a fresh corpus drawn from the run's seed
CAMPAIGN_COUNT = 150

#: requests per block of the daemon mix, by kind; blocks are shuffled,
#: so every prefix of a stream carries close to these shares
MIX_BLOCK = {"perfect": 7, "campaign": 5, "frontier": 3, "watch": 5}

#: share of analyze requests that ask for the audit
AUDIT_SHARE = 0.2

#: requests drawn per client stream: far more than a run can send at the
#: daemon's service time, so a client never runs out
STREAM_LENGTH = 5000

#: routine extents a watch revision cycles through when it edits one
WATCH_SPANS = (200, 300, 500, 1000)


def perfect_programs() -> dict[str, tuple[str, dict[str, int]]]:
    """Program name -> (source, sizes) for the Perfect registry."""
    out: dict[str, tuple[str, dict[str, int]]] = {}
    for kernel in KERNELS:
        out.setdefault(kernel.program, (kernel.source, dict(kernel.sizes)))
    return out


def perfect_order(seed: int, pass_index: int) -> list[str]:
    """The order one perfect-cold pass compiles the programs in."""
    names = sorted(perfect_programs())
    random.Random(f"perfbench-perfect-{seed}-{pass_index}").shuffle(names)
    return names


def campaign_corpus(seed: int, pass_index: int) -> list[BatchItem]:
    """The campaign corpus of one pass (pass 0 is the counting pass)."""
    return generate_campaign(CAMPAIGN_COUNT, seed * 1000 + pass_index)


@dataclass
class Request:
    """One daemon request: an analyze call or a watch revision."""

    kind: str  # perfect | campaign | frontier | watch
    name: str
    source: str
    sizes: dict[str, int] = field(default_factory=dict)
    audit: bool = False
    #: known answer: frontier kernel name, Perfect program name, or None
    answer: Optional[str] = None


def watch_program(client: int, spans: tuple[int, ...]) -> str:
    """The watched program of one client: a driver and one routine per
    analysis pattern, routine *j* declared with extent ``spans[j]``."""
    names = [f"W{client}{j}{p[:3].upper()}"
             for j, p in enumerate(ROUTINE_PATTERNS)]
    source = make_driver(f"WATCH{client}", names)
    for name, pattern, span in zip(names, ROUTINE_PATTERNS, spans):
        source += make_routine(name, pattern, span)
    return source


def warmup_requests(seed: int) -> list[Request]:
    """Sequential requests sent to a fresh daemon before timing: every
    Perfect program and frontier kernel once, a few new items."""
    out = [
        Request("perfect", f"{name}.f", src, sizes, answer=name)
        for name, (src, sizes) in sorted(perfect_programs().items())
    ]
    out += [
        Request("frontier", f"{k.name}.f", k.source, answer=k.name)
        for k in FRONTIER_KERNELS
    ]
    out += [
        Request("campaign", item.name, item.source)
        for item in generate_campaign(6, seed * 1000 + 999)
    ]
    return out


def client_stream(seed: int, client: int) -> list[Request]:
    """The request stream of one closed-loop client.

    Campaign items are drawn from a corpus no other client or pass
    uses, so each is new to the daemon.  Watch revisions edit one
    routine of the client's watched program.
    """
    rng = random.Random(f"perfbench-mixed-{seed}-{client}")
    programs = perfect_programs()
    perfect = sorted(programs)
    frontier = list(FRONTIER_KERNELS)
    rng.shuffle(perfect)
    rng.shuffle(frontier)
    items = iter(generate_campaign(STREAM_LENGTH, seed * 1000 + 500 + client))
    spans = [1000] * len(ROUTINE_PATTERNS)
    kinds = [k for k, n in MIX_BLOCK.items() for _ in range(n)]
    counters = dict.fromkeys(MIX_BLOCK, 0)
    out: list[Request] = []
    while len(out) < STREAM_LENGTH:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            n = counters[kind]
            counters[kind] += 1
            if kind == "perfect":
                name = perfect[n % len(perfect)]
                src, sizes = programs[name]
                req = Request(kind, f"{name}.f", src, sizes, answer=name)
            elif kind == "frontier":
                k = frontier[n % len(frontier)]
                req = Request(kind, f"{k.name}.f", k.source, answer=k.name)
            elif kind == "campaign":
                item = next(items)
                req = Request(kind, item.name, item.source)
            else:
                edit = rng.randrange(len(spans))
                choices = [s for s in WATCH_SPANS if s != spans[edit]]
                spans[edit] = rng.choice(choices)
                req = Request(kind, f"watch{client}.f",
                              watch_program(client, tuple(spans)))
            if kind != "watch":
                req.audit = rng.random() < AUDIT_SHARE
            out.append(req)
    return out[:STREAM_LENGTH]


def watch_base(client: int) -> str:
    """Revision 0 of a client's watched program (sent in warm-up)."""
    return watch_program(client, (1000,) * len(ROUTINE_PATTERNS))
