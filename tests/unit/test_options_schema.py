"""The analysis-options schema: one declaration, three front ends.

``AnalysisOptions`` field metadata generates the ``panorama`` and
``panorama-batch`` flags, the ``panorama-serve`` budget ceilings and the
daemon's request parser; these tests hold the front ends to it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dataflow.context import (
    AnalysisOptions,
    options_from_args,
    options_from_request,
)
from repro.driver import cli as driver_cli
from repro.engine import cli as batch_cli
from repro.server import cli as serve_cli

FLAGGED = [
    f for f in dataclasses.fields(AnalysisOptions) if f.metadata["flag"]
]


def spellings(f: dataclasses.Field) -> tuple[list[str], dict]:
    """A non-default setting of *f*: as CLI args and as request options."""
    meta = f.metadata
    key = meta["flag"][2:].replace("-", "_")
    if meta["flag"] == "--ablate":  # valued by the technique's key tag
        return [meta["flag"], meta["key"]], {key: [meta["key"]]}
    if "number" in meta:
        return [meta["flag"], "7"], {key: 7}
    return [meta["flag"]], {key: True}


@pytest.mark.parametrize("f", FLAGGED, ids=lambda f: f.name)
def test_cli_and_request_spellings_build_equal_options(f):
    argv, request = spellings(f)
    single = options_from_args(
        driver_cli.build_arg_parser().parse_args(["k.f", *argv])
    )
    batch = options_from_args(batch_cli.build_arg_parser().parse_args(argv))
    served = options_from_request(request)
    assert single == batch == served
    assert getattr(served, f.name) != f.default
    assert dataclasses.replace(served, **{f.name: f.default}) == (
        AnalysisOptions()
    )


PARSERS = {
    "panorama": (driver_cli.build_arg_parser, ["k.f"]),
    "panorama-batch": (batch_cli.build_arg_parser, []),
    "panorama-serve": (serve_cli.build_arg_parser, []),
}


@pytest.mark.parametrize("prog", sorted(PARSERS))
@pytest.mark.parametrize("flag", ["--budget-ms", "--budget-steps"])
def test_cli_refuses_budgets_the_server_refuses(prog, flag, capsys):
    build, positional = PARSERS[prog]
    parser = build()
    good = parser.parse_args([*positional, flag, "5"])
    assert getattr(good, flag[2:].replace("-", "_")) == 5
    for bad in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*positional, flag, bad])
        assert exc.value.code == 2, bad
        assert "must be positive and finite" in capsys.readouterr().err
        with pytest.raises(ValueError):
            options_from_request({flag[2:].replace("-", "_"): float(bad)})
