"""Slope combinatorics of abelian varieties over finite fields.

Builds Galois permutation models of CM fields, derives Frobenius slopes
from CM-types, classifies Tate / Lefschetz / exotic orbit summands,
computes endomorphism-algebra invariants, and forges number-field
certificates with prescribed local behavior.
"""
