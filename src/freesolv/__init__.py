"""Decision procedures for free solvable groups S_{r,d}.

Word and power (cyclic membership) problems, each in an exact
deterministic flavor and a faster seeded Monte Carlo flavor, and the
conjugacy problem, exact in both modes.  The engines behind them
(SupportChain, SchreierSupport) stay importable from their own modules,
and freesolv.oracle holds the independent Magnus-embedding /
Fox-derivative oracle that `freesolv selftest` checks the solvers against.
"""

from .words import (ParseError, Word, commutator, parse, random_reduced_word,
                    random_trivial_word)
from .xdigraph import FoldConflict
from .wordproblem import LengthGuardError, word_problem
from .power import FAIL, PowerResult, member_of_cyclic, power_solve
from .conjugacy import ConjugacyResult, conjugacy_solve

__version__ = "0.1.0"

__all__ = [
    "Word", "ParseError", "parse", "commutator", "random_reduced_word",
    "random_trivial_word", "LengthGuardError", "FoldConflict",
    "word_problem", "power_solve", "PowerResult", "FAIL", "member_of_cyclic",
    "conjugacy_solve", "ConjugacyResult", "__version__",
]
