"""Zero-curvature-plane certification for a one-parameter family of points
in a two-sided quotient of the 3x3 unit-symplectic group.

The library verifies, both by an algebraic endpoint pipeline and by an
independent residual search, that no plane through a point p(theta) with
theta in (0, pi/6) has vanishing curvature for the deformed quotient metric.

The modules are the API: import `biquot.certify`, `biquot.liealg` and the
rest by name.  The package itself exports only `__version__`.
"""

__version__ = "0.1.0"
