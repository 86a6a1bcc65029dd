"""Small shared helpers: JSON number formatting."""

from __future__ import annotations

import json


def decimal_str(x) -> str:
    """Render a number as a round-trippable decimal string."""
    return repr(float(x))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
