"""Schubert polynomials, forest polynomials, and the bridge between them.

The headline question this package answers, exactly and exhaustively for
small symmetric groups: for which permutations w is the Schubert polynomial
of w a forest polynomial?  The answer is a six-pattern avoidance criterion,
and ``verify_theorem`` checks it against brute-force polynomial expansion
for every w in S_n.

>>> from forestry import schubert, lehmer_code
>>> str(schubert((4, 1, 3, 2)))
'x1^3*x2 + x1^3*x3'
>>> lehmer_code((4, 1, 5, 3, 2))
(3, 0, 2, 1, 0)
"""

from .permutations import (
    FORBIDDEN_PATTERNS,
    LehmerCode,
    Permutation,
    avoids_forbidden,
    contains_pattern,
    insert,
    inverse,
    lehmer_code,
    parse_permutation,
    pattern_witness,
    trim,
)
from .polynomials import Monomial, Polynomial
from .pipedreams import (
    all_pipe_dreams,
    schubert,
    schubert_divdiff,
    simple_closure,
    weight,
)
from .forests import (
    IndexedForest,
    code_of_forest,
    forest_from_code,
    forest_polynomial,
    valid_labelings,
)
from .correspondence import (
    BadPair,
    VerifyReport,
    covering_relation,
    find_bad_pair,
    is_forest_by_expansion,
    labeling_to_pipe_dream,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "FORBIDDEN_PATTERNS",
    "Permutation",
    "LehmerCode",
    "Monomial",
    "Polynomial",
    "IndexedForest",
    "BadPair",
    "VerifyReport",
    "avoids_forbidden",
    "contains_pattern",
    "pattern_witness",
    "insert",
    "inverse",
    "trim",
    "lehmer_code",
    "parse_permutation",
    "all_pipe_dreams",
    "simple_closure",
    "weight",
    "schubert",
    "schubert_divdiff",
    "forest_from_code",
    "code_of_forest",
    "valid_labelings",
    "forest_polynomial",
    "covering_relation",
    "labeling_to_pipe_dream",
    "find_bad_pair",
    "is_forest_by_expansion",
    "verify_theorem",
]
