"""Exact computations with subgroups of wreath products in product action.

The package provides permutation arithmetic and small-group machinery
(``perm``), wreath-product elements acting on tuples (``wreath``),
coordinate components and invariant splittings of subgroups
(``components``), the conjugation normal form making components constant
on coordinate orbits together with the certified embedding into G wr H
(``normalize``), and canonical forms for codes in Hamming graphs
(``codes``). Everything is exact and deterministic; brute-force
enumeration oracles back the fast paths at desk scale.
"""

from .errors import (
    DegreeMismatchError,
    EnumerationOverflow,
    HypothesisViolation,
    InvalidPermutationError,
    ParseError,
)
from .perm import (
    DEFAULT_CAP,
    GenGroup,
    INTRANSITIVE,
    Permutation,
    TRANSITIVE,
    TWO_TRANSITIVE,
    random_permutation,
    same_group,
    symmetric_gens,
)
from .wreath import (
    WreathContext,
    WreathElement,
    format_point,
    parse_point,
    stabilizer_order_oracle,
)
from .components import SplitResult, TransitivityReport, WreathSubgroup
from .normalize import (
    EmbedCertificate,
    EmbedResult,
    NormalizationResult,
    Transversal,
    adjust_transversal,
    build_transversal,
    conjugate_subgroup,
    embed_in_wreath,
    normalizing_element,
    sift_embedding,
)
from .codes import (
    CanonicalizationResult,
    Code,
    canonicalize,
    format_code,
    hamming_distance,
    is_automorphism,
    parse_code,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalizationResult",
    "Code",
    "DEFAULT_CAP",
    "DegreeMismatchError",
    "EmbedCertificate",
    "EmbedResult",
    "EnumerationOverflow",
    "GenGroup",
    "HypothesisViolation",
    "INTRANSITIVE",
    "InvalidPermutationError",
    "NormalizationResult",
    "ParseError",
    "Permutation",
    "SplitResult",
    "TRANSITIVE",
    "TWO_TRANSITIVE",
    "TransitivityReport",
    "Transversal",
    "WreathContext",
    "WreathElement",
    "WreathSubgroup",
    "adjust_transversal",
    "build_transversal",
    "canonicalize",
    "conjugate_subgroup",
    "embed_in_wreath",
    "format_code",
    "format_point",
    "hamming_distance",
    "is_automorphism",
    "normalizing_element",
    "parse_code",
    "parse_point",
    "random_permutation",
    "same_group",
    "sift_embedding",
    "stabilizer_order_oracle",
    "symmetric_gens",
]
