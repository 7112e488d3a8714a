"""The benchmark's tracing wrappers (``bench/trace.py``) install on the
package's seams and undo cleanly.  ``install`` looks every seam up by name,
so a refactor that renames one (``hjm._kernel_step``,
``rng.driver_increment_block``, ``calibration._terminal_exponents``, ...)
fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

from multicurve import affine, calibration, cli, hjm, momentkernel, rng

TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"
# every owner that ``install`` patches
OWNERS = (affine, calibration, cli, hjm, momentkernel, momentkernel.KernelFamily, rng)


def load_trace():
    """``bench/trace.py`` as a module named ``bench_trace``: the name
    ``trace`` would shadow the standard library's.  It stays out of
    ``sys.modules``, so the literals hypothesis draws from loaded local
    modules (``tests/conftest.py``) stay the same."""
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_seams_and_undo_restores_every_attribute():
    trace = load_trace()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    undo = trace.install(trace.Tracer())
    try:
        for owner, attr in ((rng, "driver_increment_block"), (hjm, "_kernel_step"),
                            (calibration, "_terminal_exponents"), (cli, "simulate_hjm"),
                            (momentkernel.KernelFamily, "solve_with_exponent")):
            assert getattr(owner, attr) is not before[owner][attr], attr
    finally:
        undo()
    for owner, attrs in before.items():
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert [name for name, value in attrs.items() if now[name] is not value] == [], owner
