"""Evolutionary factor search over rolling price windows: an expression
DSL, a sparse top-m portfolio backtester, and a generate/validate/prune
evolution loop with offline or remote candidate generators.

The API lives in the modules (evofactor.dsl, evofactor.evolution, ...);
the package root holds only the version."""

__version__ = "0.1.0"
