"""qfpsim: quantum-fingerprinting SMP protocol simulator and margin toolkit.
The API lives in the submodules, e.g. ``from qfpsim.bounds import margin_report``."""

__version__ = "0.1.0"

# Always False: the kernels are plain numpy.  Kept because
# ``perfbench/run.py`` records ``qfpsim.USING_NUMBA`` in its environment block.
USING_NUMBA = False
