"""Boolean ``REPRO_*`` environment switches, parsed in one place."""

from __future__ import annotations

import os

_ON = ("1", "on", "true", "yes")
_OFF = ("0", "off", "false", "no")


def env_flag(name: str, default: bool = False) -> bool:
    """The switch ``name`` from the environment.

    ``1``/``on``/``true``/``yes`` turn it on and ``0``/``off``/``false``/
    ``no`` turn it off, in any case; unset, empty or any other value
    leaves ``default``.
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in _ON:
        return True
    if raw in _OFF:
        return False
    return default
