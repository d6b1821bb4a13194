"""One run context: the deadline and node count that every search shares.

A command, a claim check or a public call enters a :class:`Run`; each
search below it reads the innermost one entered, so one budget bounds the
whole call. This module imports nothing of letterkit, so a process that
only needs the run context (every CLI command wraps itself in one) loads
no search code for it.
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
    """A search's deadline and node count.

    The deadline (a ``time.monotonic()`` value, or None for none) is the
    earlier of the enclosing run's, that is the innermost run entered with
    ``with``, and ``budget`` seconds from now. So a nested call cannot
    outlive its caller's budget, and ``Run()`` reads the enclosing deadline.
    A NaN budget raises ValueError: it would compare false with every time
    and so switch every deadline off.
    """

    __slots__ = ("deadline", "nodes", "_token")

    def __init__(self, budget: float | None = None):
        enclosing = _ENCLOSING.get()
        self.deadline = None if enclosing is None else enclosing.deadline
        if budget is not None:
            if math.isnan(budget):
                raise ValueError("budget must be a number of seconds, not NaN")
            own = time.monotonic() + budget
            self.deadline = own if self.deadline is None else \
                min(self.deadline, own)
        self.nodes = 0

    def check(self, what: str) -> None:
        """Raise :class:`BudgetExceeded`, naming ``what`` ran out, once no
        time is left."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"{what} ran past its budget")

    def __enter__(self) -> Run:
        self._token = _ENCLOSING.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _ENCLOSING.reset(self._token)
