"""seamcheck: find undefined behavior at a host/foreign memory boundary.

Scenarios written in a small two-dialect language run on one shared memory
under a pluggable aliasing model (tree-structured by default, stack-based as
the alternative). Runs are deterministic per (scenario, seed); disagreements
between the two models are first-class results.
"""

__version__ = "0.1.0"
