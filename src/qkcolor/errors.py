"""Exception hierarchy shared by all pipeline stages."""


class QKColorError(Exception):
    """Base class for all qkcolor errors.  Every one but NoSolutions is
    also exactly one of InputError and ResourceLimit."""


class InputError(QKColorError):
    """A graph, circuit or device the pipeline cannot use (CLI exit 2)."""


class ResourceLimit(QKColorError):
    """A job past a configured size bound (CLI exit 3)."""


# --- input / graph errors ---

class MalformedMatrix(InputError):
    """Adjacency text is not a square 0/1 matrix."""


class AsymmetricMatrix(InputError):
    """Adjacency matrix does not describe an undirected graph."""


class SelfLoop(InputError):
    """Nonzero diagonal entry or edge (i, i)."""


class InvalidK(InputError):
    """Color count k < 2."""


# --- circuit IR errors ---

class IndexOutOfRange(InputError):
    """Gate operand outside the circuit register."""


class OverlappingOperands(InputError):
    """Controls and targets of a gate are not disjoint."""


class UnloweredGate(InputError):
    """Gate outside ``LOWERED_KINDS`` passed to the emitter or the router,
    or an MCT/MCZ with 3 or more controls that leaves no idle qubit for
    the lowering to borrow."""


class WidthMismatch(InputError):
    """Register widths differ: comparator operands, or an oracle and its
    layout."""


class NoInvalidColors(InputError):
    """Invalid-color fragment requested when k is a power of two."""


class AncillaLeak(InputError):
    """Oracle failed to return an ancilla to its initial state."""


class NoSolutions(QKColorError):
    """Graph is not k-colorable; no Grover loop can be built."""


# --- routing errors ---

class Disconnected(InputError):
    """Coupling graph is not connected."""


class TooFewPhysicalQubits(InputError):
    """Coupling graph smaller than the circuit register."""


# --- resource limits ---

class TooManyQubits(ResourceLimit):
    """Register exceeds the simulator ceiling."""


class TooLarge(ResourceLimit):
    """Brute-force enumeration space exceeds the configured bound."""
