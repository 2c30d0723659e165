"""tltt: a kernel and batch checker for a two-level type theory.

An inner homotopy-flavoured fragment (fibrant types, univalent universes,
identity types with J) lives inside an outer strict fragment (pretypes,
strict equality with J and K, definitional eta for functions, pairs and
unit).  Fibrancy is tracked by the bidirectional typechecker; evaluation
is shared between the fragments.
"""

__version__ = "0.1.0"

from tltt.syntax import Term  # noqa: F401
