"""mpmath's libmp directory as a package path, without the mpmath package.

`import mpmath.libmp` first runs mpmath/__init__.py, which builds
mpmath's contexts and function library: some 25 ms and 3 MB of every
process, and `sptorsion.reals` calls none of it. This module runs no
mpmath code: it finds where mpmath is installed and sets its own
`__path__` to mpmath's libmp directory. So `from ._libmp.libmpf import
...` in `reals` loads mpmath's own backend, libintmath, libmpf and
libelefun files (with their cached bytecode) as sptorsion._libmp.<name>.
The code that runs is mpmath's, so every bit is too. Nothing is bound to
the name mpmath in sys.modules: a later `import mpmath` builds its own
package.
"""

import importlib.util
import os

_mpmath = importlib.util.find_spec("mpmath")  # a top-level find runs no mpmath code
if _mpmath is None:
    raise ModuleNotFoundError("No module named 'mpmath'", name="mpmath")
__path__ = [os.path.join(location, "libmp") for location in _mpmath.submodule_search_locations]
