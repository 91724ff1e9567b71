"""Size guards and run configuration.

Every construction that can blow up combinatorially (products, functor
categories, half-braiding enumeration, the linear backend) checks its
inputs against a GuardConfig and refuses with SizeGuardExceeded instead of
hanging.  Defaults are sized for desk-scale certification runs; a JSON
config file and MONOCENTRE_* environment variables override them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace


class SizeGuardExceeded(RuntimeError):
    """A construction would exceed the configured size guards."""

    def __init__(self, what: str, needed, limit, hint: str = ""):
        self.what = what
        self.needed = needed
        self.limit = limit
        self.hint = hint
        msg = f"size guard exceeded: {what} needs {needed}, limit {limit}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class InternalSoundnessError(RuntimeError):
    """Two independent routes disagreed; this is a bug, not a user error."""


@dataclass(frozen=True)
class GuardConfig:
    """Caps for enumerative constructions.

    max_objects / max_morphisms: per constructed category.
    max_branch: cap on the estimated number of assignments a backtracking
        enumeration may visit before refusing.
    hochschild_max_base: largest |Ob A| admitted to the functor-category route.
    level2_full_cap: object-map bound under which the level-two functor
        category is materialized in full rather than restricted to the
        subcategory generated by the coface images.
    closure_cap: morphism cap while composition-closing a restricted
        level-two category.
    vec_max_group: largest group order the linear backend accepts.
    vec_dim_bound: largest carrier total dimension the linear backend will
        attempt when hunting for simples.

    Every field must be a nonnegative int (not a bool), however the
    config was built: defaults, a file, the environment or raised().
    """

    max_objects: int = 64
    max_morphisms: int = 4096
    max_branch: int = 1_000_000
    hochschild_max_base: int = 6
    level2_full_cap: int = 4096
    closure_cap: int = 500_000
    vec_max_group: int = 8
    vec_dim_bound: int = 6

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if type(val) is not int or val < 0:
                raise ValueError(f"guard {f.name} must be a nonnegative integer, "
                                 f"got {val!r}")

    def raised(self, **overrides) -> "GuardConfig":
        return replace(self, **overrides)

    @classmethod
    def from_file(cls, path: str) -> "GuardConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path}: expected a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"config file {path}: unknown keys {unknown}")
        try:
            return cls(**raw)
        except ValueError as exc:
            raise ValueError(f"config file {path}: {exc}") from exc

    def with_env(self) -> "GuardConfig":
        """Apply MONOCENTRE_<FIELD> environment overrides on top of self."""
        overrides = {}
        for f in fields(self):
            raw = os.environ.get("MONOCENTRE_" + f.name.upper())
            if raw is None:
                continue
            try:
                overrides[f.name] = int(raw)
            except ValueError as exc:
                raise ValueError(f"MONOCENTRE_{f.name.upper()}={raw!r} is not an integer") from exc
        return replace(self, **overrides) if overrides else self


DEFAULT = GuardConfig()


def resolve(cfg: GuardConfig | None) -> GuardConfig:
    return DEFAULT if cfg is None else cfg
