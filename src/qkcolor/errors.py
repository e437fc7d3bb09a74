"""Exception hierarchy shared by all pipeline stages."""


class QKColorError(Exception):
    """Base class for all qkcolor errors."""


# --- input / graph errors ---

class MalformedMatrix(QKColorError):
    """Adjacency text is not a square 0/1 matrix."""


class AsymmetricMatrix(QKColorError):
    """Adjacency matrix does not describe an undirected graph."""


class SelfLoop(QKColorError):
    """Nonzero diagonal entry or edge (i, i)."""


class InvalidK(QKColorError):
    """Color count k < 2."""


# --- circuit IR errors ---

class IndexOutOfRange(QKColorError):
    """Gate operand outside the circuit register."""


class OverlappingOperands(QKColorError):
    """Controls and targets of a gate are not disjoint."""


class UnloweredGate(QKColorError):
    """Gate outside the lowered alphabet: an MCT/MCZ with more than 1
    control or a negative control reached the emitter or the router, or
    one with 3 or more controls leaves no idle qubit for the lowering
    to borrow."""


class WidthMismatch(QKColorError):
    """Register widths differ: comparator operands, or a simulator input
    and its circuit."""


class NoInvalidColors(QKColorError):
    """Invalid-color fragment requested when k is a power of two."""


class NoSolutions(QKColorError):
    """Graph is not k-colorable; no Grover loop can be built."""


# --- routing errors ---

class Disconnected(QKColorError):
    """Coupling graph is not connected."""


class TooFewPhysicalQubits(QKColorError):
    """Coupling graph smaller than the circuit register."""


# --- resource limits ---

class TooManyQubits(QKColorError):
    """Register exceeds the simulator ceiling."""


class TooLarge(QKColorError):
    """Brute-force enumeration space exceeds the configured bound."""


class AncillaLeak(QKColorError):
    """Oracle failed to return an ancilla to its initial state."""
