"""Exact symbolic kernel and numeric flow laboratory for geometry on T+T*.

Modules:
    algebra      exact rational polynomials on coordinate charts
    forms        exterior algebra of mixed forms, Mukai pairing
    generalized  sections of T+T*, Clifford action, Courant bracket
    metric       generalized metrics and skew-torsion connections
    twisted      chart-cover gluing and the twisted differential
    spin55       the five-dimensional quartic invariant and its geometry
    tables       structure-constant tables for the numeric grid backends
    flow         the volume-functional evolution on a periodic torus grid
    sixdim       the six-dimensional structure sigma(z) of a trajectory
    io           JSON input formats; malformed input raises InputError
    cli          command-line verification suites and reports
"""

__version__ = "0.1.0"
