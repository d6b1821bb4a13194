"""One run context: the clock, the deadline and the search counters.

A command, a claim check or a library call enters a :class:`Run`; each
search below it counts its work on a ``Run()`` of its own, which keeps the
innermost deadline entered, so one budget bounds the whole call. Only this
module reads the clock. It imports nothing of letterkit, so every CLI
command can run in a ``Run`` without loading search code for it.
"""

from __future__ import annotations

import contextvars
import math
import time


class BudgetExceeded(RuntimeError):
    """Raised when a search runs past its wall-clock budget."""


_ENCLOSING: contextvars.ContextVar[Run | None] = \
    contextvars.ContextVar("letterkit_run", default=None)


class Run:
    """A search's start, deadline and counters.

    ``start`` is the clock's one reading when the run is made. The deadline
    (a ``time.monotonic()`` value, or None for none) is the earlier of the
    enclosing run's, that is the innermost run entered with ``with``, and
    ``budget`` seconds after ``start``. So a nested call cannot outlive its
    caller's budget, and ``Run()`` reads the enclosing deadline. A NaN
    budget raises ValueError: it would compare false with every time and so
    switch every deadline off. The solver counts ``nodes`` (placements and
    word-search nodes) and ``decoders_tried`` (letter-class searches). A
    run may be entered again while it is entered; each exit restores the
    run that was enclosing at its own entry.
    """

    __slots__ = ("start", "deadline", "nodes", "decoders_tried", "_tokens")

    def __init__(self, budget: float | None = None):
        enclosing = _ENCLOSING.get()
        self.start = time.monotonic()
        self.deadline = None if enclosing is None else enclosing.deadline
        if budget is not None:
            if math.isnan(budget):
                raise ValueError("budget must be a number of seconds, not NaN")
            own = self.start + budget
            self.deadline = own if self.deadline is None else \
                min(self.deadline, own)
        self.nodes = self.decoders_tried = 0
        self._tokens = []  # one per ``with`` entered and not yet left

    @property
    def elapsed(self) -> float:
        """Seconds since ``start``."""
        return time.monotonic() - self.start

    def check(self, what: str) -> None:
        """Raise :class:`BudgetExceeded` naming ``what`` once time is up."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"{what} ran past its budget")

    def __enter__(self) -> Run:
        self._tokens.append(_ENCLOSING.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _ENCLOSING.reset(self._tokens.pop())
