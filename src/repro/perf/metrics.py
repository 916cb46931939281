"""Declared metric groups: one dataclass per group, generic merge and export.

A *metric group* is a dataclass whose fields are its counters.  Hot
paths bump them as plain attributes; :func:`as_dict`, :func:`from_dict`,
:func:`fold` and :func:`delta` derive everything else from
``dataclasses.fields``, so adding a counter is one field declaration.

A field folds by its ``metadata["merge"]``: ``"sum"`` (the default),
``"max"`` for peaks (:data:`MAX`), or ``"keep"`` for labels describing
one run (:data:`KEEP`; a fold leaves the target's value alone).  A
field whose default factory is a group folds recursively; a ``dict``
field is an open-keyed counter map and adds key by key.  Read-only
properties named in a ``DERIVED`` class attribute are exported beside
the fields and ignored on the way back in.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Mapping, TypeVar

#: field metadata: the field is a peak and folds by ``max``
MAX = {"merge": "max"}
#: field metadata: the field labels one run and is not folded
KEEP = {"merge": "keep"}

G = TypeVar("G")

#: per-class ``(name, rule, nested group class or None)`` tuples
_SPECS: dict[type, tuple[tuple[str, str, Any], ...]] = {}


def _spec(cls: type) -> tuple[tuple[str, str, Any], ...]:
    spec = _SPECS.get(cls)
    if spec is None:
        spec = _SPECS[cls] = tuple(
            (f.name, f.metadata.get("merge", "sum"),
             f.default_factory if is_dataclass(f.default_factory) else None)
            for f in fields(cls)
        )
    return spec


class MetricGroup:
    """Base of a group: a counter also reads by its export name
    (``telemetry.resilience["retries"]``)."""

    def __getitem__(self, name: str) -> Any:
        if name not in [f.name for f in fields(self)]:
            raise KeyError(name)
        return getattr(self, name)


def as_dict(group: Any) -> dict[str, Any]:
    """The group as a JSON-ready dict (nested groups and maps copied)."""
    out: dict[str, Any] = {}
    for name, _rule, sub in _spec(type(group)):
        value = getattr(group, name)
        if sub is not None:
            value = as_dict(value)
        elif isinstance(value, dict):
            value = dict(value)
        out[name] = value
    for name in getattr(group, "DERIVED", ()):
        out[name] = getattr(group, name)
    return out


def from_dict(cls: type[G], data: Mapping[str, Any]) -> G:
    """Rebuild a group from its :func:`as_dict` form.

    Missing fields take their defaults and unknown keys are ignored, so
    exports written by an older or newer field set still load.
    """
    kwargs: dict[str, Any] = {}
    for name, _rule, sub in _spec(cls):
        if name in data:
            value = data[name]
            if sub is not None:
                value = from_dict(sub, value)
            elif isinstance(value, dict):
                value = dict(value)
            kwargs[name] = value
    return cls(**kwargs)


def fold(into: G, other: Any) -> G:
    """Merge *other* (a group or its dict form) into *into* by each
    field's rule; fields *other* lacks are left alone."""
    values = other if isinstance(other, Mapping) else vars(other)
    for name, rule, sub in _spec(type(into)):
        if rule == "keep" or name not in values:
            continue
        value = values[name]
        if sub is not None:
            fold(getattr(into, name), value)
        elif isinstance(value, Mapping):
            counts = getattr(into, name)
            for key, n in value.items():
                counts[key] = counts.get(key, 0) + n
        elif rule == "max":
            setattr(into, name, max(getattr(into, name), value))
        else:
            setattr(into, name, getattr(into, name) + value)
    return into


def delta(after: G, before: G) -> G:
    """What a flat group *after* accumulated since its *before* snapshot
    (peaks and labels keep *after*'s value)."""
    return type(after)(**{
        name: getattr(after, name) - getattr(before, name)
        if rule == "sum" else getattr(after, name)
        for name, rule, _ in _spec(type(after))
    })
