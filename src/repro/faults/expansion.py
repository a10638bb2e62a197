"""Re-expansion bookkeeping: the root-coordinate health ledger.

``Session.degrade()`` abandons the faulted machine and rebuilds on a
subcube; the abandoned machine object — ultimately the *root* cube the
session started on — becomes the natural ledger for whole-fleet health.
An :class:`ExpansionLedger` keeps that root machine, the composed
embedding of the current (possibly repeatedly degraded) machine inside
it, and the heal events extracted from the fault injector before each
degrade (a translate() would have dropped them with the hardware they
target).

When heals come due, the ledger revives the root-level hardware; when the
root then contains a healthy subcube strictly larger than the current
machine, ``Session.promotion_ready()`` reports promotion is possible and
``Session.promote()`` rebuilds on it — the mirror image of ``degrade()``.
Promotion is gated on the injector's :class:`~repro.faults.injector.
HealthTracker` being quiet, so flapping (still-suspect) components never
thrash the session back and forth.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..embeddings.gray import deposit_bits


class ExpansionLedger:
    """Root-cube health history + composed embedding of the current machine.

    ``embed_dims[i]`` is the root dimension that current-machine dimension
    ``i`` maps to; ``embed_base`` the root address bits the embedding
    fixes.  ``record_degrade`` composes a further shrink into the
    embedding; ``record_promote`` resets it to the promoted cube.
    ``enabled`` is cleared by the resilient runner when promotion is
    exhausted or failed, turning all further checks into no-ops.

    The root keeps its health masks with its own ``kill_*``/``revive_*``
    methods: ``Session`` empties an abandoned machine's slots, so they
    reach no tracer, sanitizer or injector of the running session.
    """

    def __init__(self, root: Any) -> None:
        self.root = root
        self.embed_dims: Tuple[int, ...] = tuple(range(root.n))
        self.embed_base: int = 0
        #: pending repairs in root coordinates: (kind, time, dim, pid),
        #: kind in {"node", "link"} (dim is None for nodes).
        self.heals: List[Tuple[str, float, Optional[int], int]] = []
        self.enabled = True
        #: True once a heal has landed that no promotion consumed yet.
        #: Promotion is *heal-driven*: a root cube can hold a subcube
        #: larger than the current machine merely because degrade picks
        #: subcubes greedily, and re-expanding on that alone would change
        #: the long-standing degrade-only semantics of default runs.
        self.heal_applied = False

    # -- coordinate lifting ----------------------------------------------------

    def to_root_pid(self, pid: int) -> int:
        return self.embed_base | deposit_bits(pid, self.embed_dims)

    def to_root_dim(self, dim: int) -> int:
        return self.embed_dims[dim]

    # -- bookkeeping entry points ----------------------------------------------

    def sync_kills(self, machine: Any) -> None:
        """Mirror the current machine's dead hardware into root coordinates.

        Called before each degrade and before each promotion check, so
        kills that landed *after* earlier degrades are never forgotten
        when the session re-expands past them.  Idempotent; a no-op when
        ``machine`` is the root itself (shared masks).
        """
        if machine is self.root:
            return
        if machine.node_ok is not None:
            for pid in np.flatnonzero(~machine.node_ok):
                self.root.kill_node(self.to_root_pid(int(pid)))
        if machine.link_ok is not None:
            for dim in range(machine.n):
                for lo in np.flatnonzero(~machine.link_ok[dim]):
                    self.root.kill_link(
                        self.to_root_dim(dim), self.to_root_pid(int(lo))
                    )

    def add_heal_events(self, events: Sequence[Any]) -> None:
        """File heal events (current-machine coordinates) in root terms.

        Must be called *before* ``record_degrade`` updates the embedding —
        the events were scheduled against the machine being abandoned.
        """
        for ev in events:
            dim = getattr(ev, "dim", None)
            if dim is None:
                self.heals.append(
                    ("node", ev.time, None, self.to_root_pid(ev.pid))
                )
            else:
                root_dim = self.to_root_dim(dim % max(len(self.embed_dims), 1))
                root_pid = self.to_root_pid(ev.pid)
                self.heals.append(
                    ("link", ev.time, root_dim,
                     min(root_pid, root_pid ^ (1 << root_dim)))
                )

    def apply_due_heals(self, now: float) -> List[Tuple[str, Optional[int], int]]:
        """Revive root hardware whose heal time has arrived.

        Returns the repairs that actually changed state, as ``(kind, dim,
        pid)`` tuples (dim ``None`` for nodes).
        """
        applied: List[Tuple[str, Optional[int], int]] = []
        still_pending = []
        for kind, time, dim, pid in self.heals:
            if time > now:
                still_pending.append((kind, time, dim, pid))
                continue
            if kind == "node":
                if self.root.revive_node(pid):
                    applied.append(("node", None, pid))
            else:
                if self.root.revive_link(dim, pid):
                    applied.append(("link", dim, pid))
        self.heals = still_pending
        if applied:
            self.heal_applied = True
        return applied

    def promotion_target(
        self, current_p: int
    ) -> Optional[Tuple[Tuple[int, ...], int]]:
        """Root-coordinate ``(free_dims, base)`` of a strictly larger
        healthy cube, or ``None``."""
        if not self.enabled:
            return None
        from .recovery import largest_healthy_subcube

        try:
            free_dims, base = largest_healthy_subcube(self.root)
        except Exception:  # pragma: no cover - root wholly dead
            return None
        if (1 << len(free_dims)) > current_p:
            return free_dims, base
        return None

    def record_degrade(self, free_dims: Sequence[int], base: int) -> None:
        """Compose a shrink (``free_dims``/``base`` in *current* coords)."""
        self.embed_base = self.to_root_pid(base)
        self.embed_dims = tuple(self.embed_dims[d] for d in free_dims)

    def record_promote(self, free_dims: Sequence[int], base: int) -> None:
        """Reset the embedding to a promoted cube (*root* coords)."""
        self.embed_dims = tuple(free_dims)
        self.embed_base = base


__all__ = ["ExpansionLedger"]
