"""The kernel module under its historical name.

twistzeta._kernels_py is the only kernel implementation.  This alias
stays because the benchmark tracer in perfbench/ wraps the functions of
_backend.kernels and its environment fingerprint prints
twistzeta.BACKEND.
"""

from . import _kernels_py as kernels

BACKEND = "py"
