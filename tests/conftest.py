import os
import sys

# One BLAS thread, set before anything imports numpy: at these shapes a second
# BLAS thread burns a core for no wall-time gain.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    """Re-emit the acceptance verdict lines so they survive output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
