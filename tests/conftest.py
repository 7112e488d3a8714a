"""Shared test settings: one derandomized ``hypothesis`` profile.

Property tests draw the same examples on every run (``derandomize=True``, no
example database), so the suite stays deterministic; a test may still lower
``max_examples`` for itself with ``@settings(max_examples=...)``.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "multicurve", derandomize=True, database=None, deadline=None, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("multicurve")
