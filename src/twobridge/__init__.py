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

__version__ = "0.1.0"
