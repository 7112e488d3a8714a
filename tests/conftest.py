"""Shared test settings: one derandomized ``hypothesis`` profile.

Property tests draw the same examples on every run (``derandomize=True``, no
example database), so the suite stays deterministic; a test may still lower
``max_examples`` for itself with ``@settings(max_examples=...)``.

Hypothesis also draws some choices from the literals of every loaded local
module outside ``tests/``.  Importing ``multicurve.cli`` here, which loads
every ``multicurve`` module, gives that pool the same contents whichever
tests run, so a property draws the same examples alone as in the whole
suite.  Examples still change when a literal in ``src/`` changes, and a run
that also collects ``bench/`` adds the bench modules' literals.
"""

from hypothesis import HealthCheck, settings

import multicurve.cli  # noqa: F401

settings.register_profile(
    "multicurve", derandomize=True, database=None, deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("multicurve")
