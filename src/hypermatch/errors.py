"""Exception types shared across the package."""


class HypermatchError(Exception):
    """Base class for all library errors."""


class InvalidVertex(HypermatchError):
    """A vertex id is outside [0, n)."""


class InvalidDegreeOrder(HypermatchError):
    """Degree queried for a set size outside [1, r-1]."""


class TooSmall(HypermatchError):
    """A vertex set is too small for the requested density."""


class InvalidPartition(HypermatchError):
    """Partite classes overlap, are empty, or do not match the operation arity."""


class Indivisible(HypermatchError):
    """Vertex count is not a multiple of the uniformity."""


class Infeasible(HypermatchError):
    """Requested generation target cannot be met."""


class NotDisjoint(HypermatchError):
    """Two sets required to be disjoint share a vertex."""


class NotApplicable(HypermatchError):
    """An input falls outside an operation's hypothesis: a link graph below
    the 37-edge classification, or a graph that is not 4-uniform given to
    the pipeline."""


class LemmaViolation(HypermatchError):
    """A link graph with >= 37 edges matched none of the five cases.

    Must never fire; raising it produces a counterexample report.
    """

    def __init__(self, mask: int):
        self.mask = mask
        super().__init__(f"no classification case matched mask {mask:016x}")


class InsufficientDensity(HypermatchError):
    """A density precondition (>= 2*eta) does not hold."""


class EmptyInput(HypermatchError):
    """Operation requires a nonempty edge set or item set."""


class AbsorptionFailed(HypermatchError):
    """No absorber could be found for some leftover 4-set."""
