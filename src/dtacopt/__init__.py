"""Delay-tolerant augmented-consensus distributed optimization (DTAC-ADDOPT).

Push-sum gradient tracking over strongly connected digraphs where every
link carries a fixed, bounded, heterogeneous integer delay.

The API is the modules (`dtacopt.graphs`, `dtacopt.delays`, `dtacopt.costs`,
`dtacopt.optimizer`, `dtacopt.spectral`, `dtacopt.experiment`); the package
re-exports nothing, so importing a layer loads only it and what it imports.
"""

__version__ = "0.1.0"
