"""The one argument check of the library's public entry points.

The HJM drift and consistency conditions and the affine exponents hold only
for finite coefficients, horizons, states and prices, so the entry points
read those numbers through ``checked``: finite, and positive or nonnegative
where the entry point asks.  Importing this module loads numpy only, so
every module can import it.
"""

import numpy as np

# each rule's message text and the sign test a finite value must also pass
_RULES = {
    "finite": None,
    "positive and finite": np.greater,
    "finite and nonnegative": np.greater_equal,
}


def checked(value, name, rule="finite", shape=None, default=None):
    """``value`` as a float, or as a float array of ``shape`` when given, that
    obeys ``rule``: "finite", "positive and finite" or "finite and
    nonnegative".

    A None ``value`` becomes an array of ``shape`` filled with ``default``
    (ValueError "<name> is required" without one); an array with fewer axes
    than ``shape`` gains leading ones, as ``np.atleast_2d`` does.  A wrong
    shape raises ValueError("<name> must have shape ..."), a value that breaks
    the rule ValueError("<name> must be <rule>, got <value>").
    """
    if value is None:
        if default is None:
            raise ValueError(f"{name} is required")
        return np.full(shape, float(default))
    out = np.asarray(value, dtype=float)
    if shape is not None:
        out = out.reshape((1,) * (len(shape) - out.ndim) + out.shape)
        if out.shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
    sign = _RULES[rule]
    if not np.isfinite(out).all() or sign is not None and not sign(out, 0.0).all():
        raise ValueError(f"{name} must be {rule}, got {value}")
    return out if out.ndim else float(out)
