"""The two compiled linear-algebra routines polymkl calls: LAPACK dpotrf and
dpotrs (Cholesky factor and solve).

They are scipy's f2py wrappers, the same objects that `scipy.linalg.lapack`
exports. Importing them through that module runs scipy.linalg's package
init, which loads scipy's whole linear-algebra namespace and its array-API
layer; that layer walks numpy's namespace and so imports numpy.f2py and
numpy.testing as well. On a 2-vCPU Xeon VM (numpy 2.4, scipy 1.17) that
takes `import polymkl` from 0.18 s and 33 MB of resident memory to 0.44 s
and 57 MB.

So while scipy.linalg is not loaded, the extension module is loaded on its
own, from scipy's own file and under its own module name, where a later
`import scipy.linalg` finds and reuses it. Where the file is not found, the
routines come through scipy.linalg as usual.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def _scipy_linalg_extension(name: str):
    """The extension module `scipy.linalg.<name>`, without scipy.linalg's
    package init where that has not run yet."""
    full = f"scipy.linalg.{name}"
    if "scipy.linalg" in sys.modules or full in sys.modules:
        return importlib.import_module(full)
    scipy_spec = importlib.util.find_spec("scipy")
    directory = os.path.join(os.path.dirname(scipy_spec.origin), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.exists(path):
            spec = importlib.util.spec_from_file_location(full, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
            return module
    return importlib.import_module(full)


_flapack = _scipy_linalg_extension("_flapack")
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
