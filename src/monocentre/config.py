"""Size guards, run configuration, and the report rule.

Every construction that can blow up combinatorially (products, functor
categories, half-braiding enumeration, the linear backend) checks its
inputs against a GuardConfig and refuses with SizeGuardExceeded instead of
hanging: sizes through GuardConfig.bound, search steps through a Budget.
Defaults are sized for desk-scale certification runs; a JSON config file
and MONOCENTRE_* environment variables override them.

Every check reports through _report: its laws are generators of failure
messages, run in phases, and the report is the first _REPORT_CAP
failures of the first phase that has any.
"""

from __future__ import annotations

import json
import os
from itertools import islice

from .record import Record

_REPORT_CAP = 12


def _report(*phases) -> list[str]:
    """The first _REPORT_CAP failures of the first phase that yields any.

    Phases are lazy iterables of messages, so a phase starts only when
    every earlier one passed: structural failures (missing or misplaced
    cells) are reported on their own, before any law that reads the cells.
    """
    for phase in phases:
        report = list(islice(phase, _REPORT_CAP))
        if report:
            return report
    return []


class SizeGuardExceeded(RuntimeError):
    """A construction would exceed the configured size guards; the message
    names the stage, the size it needs, the limit, and the guard to raise."""

    def __init__(self, what: str, needed, limit, guard: str):
        self.what = what
        self.needed = needed
        self.limit = limit
        self.guard = guard
        super().__init__(f"size guard exceeded: {what} needs {needed}, limit {limit} "
                         f"(raise {guard})")


class InternalSoundnessError(RuntimeError):
    """Two independent routes disagreed; this is a bug, not a user error."""


# The guard names, in constructor order.
GUARDS = ("max_objects", "max_morphisms", "max_branch", "vec_max_group")


class GuardConfig(Record):
    """Caps for enumerative constructions.

    max_objects / max_morphisms: per constructed category (the centre,
        A x B, U + V, functor categories and both translation levels,
        CP(U, A), the inserter, the equifier, the descent object), objects
        before morphisms.
    max_branch: cap on the steps one enumeration or search may take (one
        Budget each) before refusing; a functor category spends one
        budget for all of its morphisms, and CP(U, A) one for all of its
        pieces and one for the morphisms of the functor subcategory on
        their functors.
    vec_max_group: largest group order the linear backend accepts, its
        only size bound: the cocycle check is quartic in |G|, and the
        induced simples and the battery grow with |G|.

    Every field must be a nonnegative int (not a bool), however the
    config was built: defaults, a file or the environment.
    """

    __slots__ = GUARDS

    def __init__(self, max_objects=64, max_morphisms=4096, max_branch=1_000_000,
                 vec_max_group=8):
        values = (max_objects, max_morphisms, max_branch, vec_max_group)
        for name, val in zip(GUARDS, values):
            if type(val) is not int or val < 0:
                raise ValueError(f"guard {name} must be a nonnegative integer, "
                                 f"got {val!r}")
        super().__init__(*values)

    @classmethod
    def from_file(cls, path: str) -> "GuardConfig":
        """The guards a JSON file overrides; every fault names the file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ValueError(f"config file {path}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        unknown = sorted(set(raw) - set(GUARDS))
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {unknown}")
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from exc

    def bound(self, what: str, needed: int, guard: str) -> None:
        """Refuse what when it needs more than the guard named guard allows."""
        limit = getattr(self, guard)
        if needed > limit:
            raise SizeGuardExceeded(what, needed, limit, guard)

    def with_env(self) -> "GuardConfig":
        """Apply MONOCENTRE_<FIELD> environment overrides on top of self."""
        overrides = {}
        for name in GUARDS:
            raw = os.environ.get("MONOCENTRE_" + name.upper())
            if raw is None:
                continue
            try:
                overrides[name] = int(raw)
            except ValueError as exc:
                raise ValueError(f"MONOCENTRE_{name.upper()}={raw!r} is not an integer") from exc
        return GuardConfig(*(overrides.get(name, getattr(self, name)) for name in GUARDS))


DEFAULT = GuardConfig()


class Budget:
    """Steps one search may take, max_branch of them, before it refuses."""

    def __init__(self, limit, what):
        self.limit = limit
        self.what = what
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise SizeGuardExceeded(self.what, f"more than {self.limit} steps",
                                    self.limit, "max_branch")
