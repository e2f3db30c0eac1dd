"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class SuperbrauerError(Exception):
    """Base class for all library errors."""


class ParseError(SuperbrauerError):
    """Malformed input file or unusable argument."""


class CapExceeded(SuperbrauerError):
    """Group closure passed the configured enumeration cap."""


class Int64Exceeded(CapExceeded):
    """A batched integer closure would leave exact int64 arithmetic."""


class NotInvertible(SuperbrauerError):
    """A matrix generator is singular."""


class TrivialInvolution(SuperbrauerError):
    """Operation requires a central involution u != 1."""


class BudgetExceeded(SuperbrauerError):
    """Computation was refused because it exceeds a configured budget."""


class NotCocycle(SuperbrauerError):
    """A 2-cochain failed the cocycle condition."""


class NotSplit(SuperbrauerError):
    """U = <u> is not a direct summand of G."""


class NotSymmetric(SuperbrauerError):
    """A matrix argument must be symmetric."""


class NotInvariant(SuperbrauerError):
    """A symmetric form is not invariant under the group action."""


class NotMinusOne(SuperbrauerError):
    """The central involution does not act as -1 on the representation."""


class E8Refused(SuperbrauerError):
    """W(E8) construction is refused at any budget."""
