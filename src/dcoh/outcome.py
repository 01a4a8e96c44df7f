"""Three-valued decision results with witnesses and certificates; the budget rule."""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_BUDGET = 10 ** 6  # the budget of a search whose caller names none


class InternalError(RuntimeError):
    """A decision procedure's self-check of its own witness failed: a bug,
    never a property of the input.  Raised explicitly, so it fires under
    python -O too."""


class BudgetExceeded(ValueError):
    """A search refused before it started: its `space` exceeds the budget."""

    def __init__(self, space: int, budget):
        super().__init__(f"search space {space} exceeds budget {budget}")
        self.space = space


def charge(space: int, budget) -> None:
    """Refuse a search of `space` candidates larger than `budget` (a number,
    math.inf for no limit); the package's only comparison with a budget."""
    if space > budget:
        raise BudgetExceeded(space, budget)


YES = "yes"
NO = "no"
UNDECIDED = "undecided"


@dataclass
class Outcome:
    status: str
    witness: object = None
    certificate: str | None = None
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == YES

    @property
    def decided(self) -> bool:
        return self.status != UNDECIDED


def yes(witness=None, **detail) -> Outcome:
    return Outcome(YES, witness=witness, detail=detail)


def no(certificate: str, **detail) -> Outcome:
    return Outcome(NO, certificate=certificate, detail=detail)


def undecided(certificate: str = "budget-exhausted", **detail) -> Outcome:
    return Outcome(UNDECIDED, certificate=certificate, detail=detail)


def first(candidates, accept, exhausted: str) -> Outcome:
    """yes(the first candidate that `accept` takes), else no(exhausted)."""
    for hit in filter(accept, candidates):
        return yes(hit)
    return no(exhausted)
