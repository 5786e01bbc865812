"""Run configuration: one JSON document, defined by frozen dataclasses.

The root holds ``master_seed`` and one object per section; each section
is the dataclass in :data:`SECTIONS`.  Its fields give the section's keys
and defaults, and its ``__post_init__`` checks every value is finite and
in range.  Unknown keys are rejected at every level.  All randomness
derives from the one ``master_seed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields

from .analysis import AnalysisParams, CellGrid
from .fitting import VisibilityParams
from .simulate import DEFAULT_MASTER_SEED, HomScanConfig, SourceConfig, check_seed

__all__ = [
    "SECTIONS",
    "ConfigError",
    "default_config",
    "load_config",
    "validate_config",
    "config_digest",
    "section",
]

SECTIONS = {
    "source": SourceConfig,
    "grid": CellGrid,
    "analysis": AnalysisParams,
    "hom": HomScanConfig,
    "visibility": VisibilityParams,
}


class ConfigError(ValueError):
    """Configuration failed validation or is unusable."""


def _keys(cls) -> list:
    # master_seed is a root key; sections that carry it take it from there.
    return [f for f in fields(cls) if f.name != "master_seed"]


def default_config() -> dict:
    """A complete configuration reproducing the published run geometry."""
    doc = {"master_seed": DEFAULT_MASTER_SEED}
    for name, cls in SECTIONS.items():
        doc[name] = {
            f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in _keys(cls)
        }
    return doc


def section(doc: dict, name: str, seed: int = None):
    """Build section ``name`` of ``doc``; absent keys take their defaults.

    ``seed`` overrides the root ``master_seed`` for sections that carry it.
    """
    cls = SECTIONS[name]
    values = doc.get(name, {})
    if not isinstance(values, dict):
        raise ConfigError(f"config invalid at {name}: expected an object, got {values!r}")
    unknown = sorted(set(values) - {f.name for f in _keys(cls)})
    if unknown:
        raise ConfigError(f"config invalid at {name}: unknown key {unknown[0]!r}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
    if "master_seed" in {f.name for f in fields(cls)}:
        kwargs["master_seed"] = doc["master_seed"] if seed is None else seed
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config invalid at {name}: {exc}") from None


def validate_config(doc: dict) -> dict:
    """Return ``doc`` unchanged, or raise ``ConfigError`` naming the bad key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config invalid at <root>: expected an object, got {doc!r}")
    unknown = sorted(set(doc) - {"master_seed", *SECTIONS})
    if unknown:
        raise ConfigError(f"config invalid at <root>: unknown key {unknown[0]!r}")
    if "master_seed" not in doc:
        raise ConfigError("config invalid at <root>: master_seed is required")
    try:
        check_seed(doc)
    except ValueError as exc:
        raise ConfigError(f"config invalid at <root>: {exc}") from None
    for name in SECTIONS:
        section(doc, name)
    return doc


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not text
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    return validate_config(doc)


def config_digest(doc: dict) -> str:
    """Digest of the canonical serialization; stable under key reordering."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
