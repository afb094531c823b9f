"""Global numeric configuration.

One record holds every tolerance and budget; tests pin these values.  The
environment variable UGSPEC_NUMERIC_CONFIG may name a JSON file overriding
individual fields.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict, replace


@dataclass(frozen=True)
class NumericConfig:
    residual_tol: float = 1e-9        # per-eigenpair residual / orthonormality
    regularity_rel_tol: float = 1e-9  # d-regularity acceptance
    net_cap: int = 10**8              # max projected net points before erroring
    brute_budget: int = 10**8         # max labelings the oracle enumerates

    def to_dict(self):
        return asdict(self)


_config: NumericConfig | None = None


def numeric_config() -> NumericConfig:
    global _config
    if _config is None:
        cfg = NumericConfig()
        path = os.environ.get("UGSPEC_NUMERIC_CONFIG")
        if path:
            cfg = replace(cfg, **_read_overrides(path))
        _config = cfg
    return _config


def _read_overrides(path) -> dict:
    """Fields a JSON config file sets; UGError unless it is an object of
    known fields, each a finite number, the budgets positive integers."""
    from .core import UGError

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UGError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UGError(f"{path}: expected a JSON object of NumericConfig fields")
    defaults = NumericConfig().to_dict()
    for key, val in data.items():
        if key not in defaults:
            raise UGError(f"{path}: unknown field {key!r}")
        if isinstance(defaults[key], int):  # type(), as JSON true loads as an int
            ok, want = type(val) is int and val > 0, "a positive integer"
        else:
            ok, want = type(val) in (int, float) and abs(val) < math.inf, "a finite number"
        if not ok:
            raise UGError(f"{path}: {key} must be {want}, got {val!r}")
    return data


def set_numeric_config(cfg: NumericConfig):
    """Install a config (tests use this); pass None via reset to reload."""
    global _config
    _config = cfg


def reset_numeric_config():
    global _config
    _config = None
