"""Exact metrological bounds and witnesses for multipartite entanglement classes.

Partitions of an n-particle system are Young diagrams; a diagram's width is
the size of its largest entangled block, its height the number of separable
blocks, and Dyson's rank their difference.  This package computes the exact
maximal quantum Fisher information of every such class, infers class
quantifiers from measured QFI or spin-squeezing values, counts excluded
(w, h) tuples, and validates all closed forms against a brute-force
partition-enumeration oracle.  It needs only the standard library.
"""

__version__ = "0.1.0"
