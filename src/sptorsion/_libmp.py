"""mpmath's raw-mpf functions, loaded without the mpmath package.

`import mpmath.libmp` first runs mpmath/__init__.py, which builds
mpmath's contexts and function library: some 25 ms and 3 MB of every
process, and `sptorsion.reals` calls none of it. This module is instead a
package whose path is mpmath's libmp directory, so the relative imports
below load mpmath's own backend, libintmath, libmpf and libelefun files
(with their cached bytecode) as sptorsion._libmp.<name>. The code that
runs is mpmath's, so every bit is too. Nothing is bound to the name
mpmath in sys.modules: a later `import mpmath` builds its own package.
"""

import importlib.util
import os

_mpmath = importlib.util.find_spec("mpmath")  # a top-level find runs no mpmath code
if _mpmath is None:
    raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
__path__ = [os.path.join(location, "libmp") for location in _mpmath.submodule_search_locations]
__package__ = __name__
__spec__.submodule_search_locations = __path__  # so that __spec__.parent agrees with __package__

from .libelefun import mpf_e, mpf_log, mpf_pow  # noqa: E402
from .libmpf import (  # noqa: E402
    dps_to_prec,
    fone,
    from_int,
    from_str,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_int,
)
