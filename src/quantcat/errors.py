"""Exception types shared across the library.

Validation errors carry the first offending witness (in a fixed scan order)
so failure reports are reproducible run to run.
"""


class QuantcatError(Exception):
    """Base class for all library errors."""


# --- quantale construction ---

class BadParameter(QuantcatError):
    """Malformed construction input (sizes, duplicate labels, arity)."""


class NotALattice(QuantcatError):
    """The supplied order is not a (complete) lattice."""


class TensorNotCommutative(QuantcatError):
    pass


class TensorNotAssociative(QuantcatError):
    pass


class NotUnital(QuantcatError):
    """The declared unit fails u ⊗ k = u."""


class UnitIsBottom(QuantcatError):
    """The unit coincides with the bottom element."""


class JoinsNotPreserved(QuantcatError):
    """Tensor fails to distribute over some join."""


class ForeignElement(QuantcatError):
    """An element was used with a quantale that does not own it."""


class NotEnumerable(QuantcatError):
    """Operation requires a finite carrier (or an explicit finite subset)."""


# --- categories and functors ---

class ReflexivityFail(QuantcatError):
    pass


class TransitivityFail(QuantcatError):
    pass


class NotAFunctor(QuantcatError):
    pass


class QuantaleMismatch(QuantcatError):
    """Two structures over different quantales were combined."""


# --- relations and distributors ---

class ShapeMismatch(QuantcatError):
    pass


class LeftActionFail(QuantcatError):
    """Codomain action escapes: composing with the codomain hom on the left
    of the relation produced a strictly larger value somewhere."""


class RightActionFail(QuantcatError):
    """Domain action escapes: composing with the domain hom on the right
    of the relation produced a strictly larger value somewhere."""


# --- presheaves, monads, submonads ---

class BudgetExceeded(QuantcatError):
    """An enumeration would exceed the configured candidate budget."""


class UnitNotContained(QuantcatError):
    """Some representable presheaf is not a member of the declared class."""


class MultiplicationEscapesT(QuantcatError):
    """Multiplication left the declared member class on this instance."""


class NotCommuting(QuantcatError):
    pass


# --- preconditions ---

class PreconditionFail(QuantcatError):
    """A named precondition of the check does not hold; says which."""


# --- algebras ---

class SpecMismatch(QuantcatError):
    """The two algebras were extracted for different member classes."""


class NoColimit(QuantcatError):
    """No object represents the weighted image; says at which object."""


class NoMinimum(QuantcatError):
    """{x : φ ≤ x^*} has no least element for this φ."""


# --- sequences ---

class NotEventuallyConstant(QuantcatError):
    pass


# --- internal invariants ---

class InternalError(QuantcatError):
    """A postcondition the library proves failed: a bug, not bad input."""


# --- document / CLI layer ---

class ParseError(QuantcatError):
    pass


class UnresolvedReference(QuantcatError):
    pass


class ValidationError(QuantcatError):
    pass


class UsageError(QuantcatError):
    pass
