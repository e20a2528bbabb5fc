"""Exact combinatorics and decision procedures for 2-bridge link groups.

The central question: given slopes s and r, is the simple loop of slope s
on the bridge sphere null-homotopic in the complement of the 2-bridge
link of slope r?  The answer is decided exactly by reducing s into a
fundamental domain of the group generated by the Farey-edge reflections
at r and at ∞, and it governs which upper-meridian-pair-preserving
epimorphisms exist between 2-bridge link groups.  The supporting cast:
relator words, their S/T-sequences, and the C(4)/T(4) small cancellation
structure of the one-relator presentations.  Each formula has one
implementation here; the independent brute-force oracles live in
``twobridge.verification``.
"""

from .slopes import (
    INFINITY,
    ONE,
    ZERO,
    Slope,
    cf_expand,
    cf_value,
    fundamental_endpoints,
    in_fundamental_intervals,
    mediant,
    parse_slope,
    schubert_equivalent,
)
from .words import (
    CyclicWord,
    apply_automorphism,
    cyclic_equal,
    cyclic_reduce,
    free_reduce,
    half_relator,
    inverse_word,
    relator,
)
from .seqs import (
    CyclicSequence,
    Decomposition,
    cyclic_s_sequence,
    decompose,
    s_sequence,
    s_sequence_of_word,
    t_sequence,
)
from .reflections import (
    CapExceededError,
    Reflection,
    ReductionTrace,
    fold,
    reduce_to_fundamental,
    reflection_in_edge,
    vertex_frame,
)
from .pieces import (
    PieceReport,
    min_piece_factorization,
    piece_product_catalog,
    satisfies_necessary_condition,
    small_cancellation_report,
    symmetrize,
)
from .decide import (
    Route,
    ScanMode,
    Verdict,
    connection_criterion,
    has_umpp_epimorphism,
    is_null_homotopic,
    scan,
)

__version__ = "0.1.0"
