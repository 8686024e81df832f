"""Exception hierarchy shared by all modules.

Every library error derives from :class:`Error` and carries a machine
readable ``code`` (the class name) plus an optional ``payload`` dict with
witness data, so the CLI can emit ``{"error": code, "detail": ...}``
documents without per-exception glue.
"""

from __future__ import annotations

from typing import Any


class Error(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str = "", **payload: Any):
        super().__init__(message or self.__class__.__name__)
        self.payload = payload

    @property
    def code(self) -> str:
        return self.__class__.__name__


# --- field / matrix layer ---------------------------------------------------

class NotPrime(Error):
    """Modulus failed the primality check."""


class MatrixTooLarge(Error):
    """Dense matrices are capped at 32 x 32."""


class IndexOutOfRange(Error):
    """Row, column or ground-set index outside the valid range."""


class NoTransform(Error):
    """No invertible left transform exists (row spaces differ)."""


class FieldMismatch(Error):
    """Operands live over different prime fields."""


# --- matroid layer ----------------------------------------------------------

class AxiomViolation(Error):
    """An independence-system axiom failed; carries the axiom index and witness."""

    def __init__(self, axiom: int, message: str = "", **payload: Any):
        super().__init__(message or f"axiom {axiom} violated", axiom=axiom, **payload)
        self.axiom = axiom


class BadRank(Error):
    """Requested rank outside 0..n."""


class OverlappingSets(Error):
    """Contract and delete sets must be disjoint."""


class GroundSetMismatch(Error):
    """Operands must share a ground set."""


# --- flag matroid layer -----------------------------------------------------

class LayerNotMatroid(Error):
    """A cardinality layer of a feasible family is not a basis family."""


class NotALift(Error):
    """Consecutive layers fail the lift condition."""


class RankCollision(Error):
    """Two matroids of equal rank cannot appear in one sequence."""


class EmptyInterval(Error):
    """No independent or spanning set has size inside the interval."""


class EmptyResult(Error):
    """A minor operation would empty the feasible family."""


class LastLayer(Error):
    """Chopping the only layer would empty the feasible family."""


# --- lifts and majors -------------------------------------------------------

class NotElementaryLift(Error):
    """Operation needs a rank gap of exactly one."""


class ConstructionFailed(Error):
    """A constructed basis family failed the exchange check."""


class NotFull(Error):
    """Operation needs consecutive layer ranks."""


class BudgetExhausted(Error):
    """Search budget ran out before the search space was exhausted."""


# --- representability -------------------------------------------------------

class RankDeficientPrefix(Error):
    """A row prefix of the matrix does not have the rank its level demands."""


class FieldTooSmall(Error):
    """The field has fewer elements than the construction requires."""


class SingleLevel(Error):
    """A single-level representation needs no major."""


# --- graphs -----------------------------------------------------------------

class BadPartition(Error):
    """Cells must cover the vertex set exactly once."""


class TrivialLiftLayer(Error):
    """Consecutive quotient matroids must have strictly increasing rank."""


class ChainNotGrounded(Error):
    """The finest partition of the chain must consist of singletons."""


class GraphNotConnected(Error):
    """Operation needs a connected graph."""


class ConfigInconsistent(Error):
    """The counterexample fixture failed its consistency step."""


# --- input handling ---------------------------------------------------------

class InvalidInput(Error):
    """Malformed JSON document or command-line value."""


# --- faults -----------------------------------------------------------------

class InternalError(Error):
    """A fault inside the program, such as decision routes that disagree;
    it says nothing about the input."""
