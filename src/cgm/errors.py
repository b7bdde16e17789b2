"""Exception hierarchy shared by every cgm module."""


class CgmError(Exception):
    """Base class for all library errors."""


class InvalidValue(CgmError):
    """A value violates the closed-universe invariants (bad table, bad distribution...)."""


class ConfigError(CgmError):
    """Unknown instance, refused option, or unreadable input file."""


# --- index category errors ---

class CompositionMismatch(CgmError):
    """compose(g, f) requested with tgt(f) != src(g)."""


class ForeignMorphism(CgmError):
    """Morphism does not belong to the category it was used with."""


class UnknownObject(CgmError):
    """Object identifier not present in the category."""


class SymbolicObjects(CgmError):
    """Operation needs an enumerable object set but the category is symbolic."""


class DanglingEdge(CgmError):
    """Graph edge references an undeclared object."""


class RepeatedGenerator(CgmError):
    """Two graph edges share one label."""


# --- graded computation errors ---

class MalformedPayload(CgmError):
    """Payload is not well formed for the instance at the given index."""


class NoTwoCell(CgmError):
    """approximate() requested between morphisms with no 2-cell."""


class NotInSubcategory(CgmError):
    """Generalised unit requested at a morphism outside its wide subcategory."""


class InconsistentContinuationIndex(CgmError):
    """bind continuation produced computations at different indices."""


class InfiniteIndex(CgmError):
    """The objects of a symbolic (infinite) index category were asked for."""


# --- instance errors ---

class SpawnGradeError(CgmError):
    """spawn argument is not indexed by a free -> free morphism."""


class DomainMismatch(CgmError):
    """State table keys differ from the declared state set."""


class InvalidImplication(CgmError):
    """Pure lifting requested for an implication that is not valid."""


class RangeError(CgmError):
    """Assignment writes a value outside the variable's declared range."""


# --- translation errors ---

class NotDiscrete(CgmError):
    """Construction requires a degenerate (identity-only) morphism mapping."""


class NotIndiscrete(CgmError):
    """Construction requires an indiscrete index category."""


class DinaturalityFailure(CgmError):
    """The two pure-lifting definitions disagree; the source structure is unlawful."""


class WrongShape(CgmError):
    """Index category is not a recognized pair completion."""


class NotBottom(CgmError):
    """Monoid unit is not the bottom element of the ordering."""


class InfeasibleEnd(CgmError):
    """End construction requested over a non-finite or unsupported index."""


# --- metalanguage errors ---

class ParseError(CgmError):
    """Positioned syntax error."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class GradeMismatch(CgmError):
    """Program composes indices that do not chain (protocol violation)."""


class UnknownPrim(CgmError):
    """Primitive has no declared morphism in the selected instance."""


class RuleMismatch(CgmError):
    """Derivation node conclusion does not fit its rule schema."""
