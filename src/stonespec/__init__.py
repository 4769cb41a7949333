"""Finite orthomodular lattices, their Stone spectra, bounded spectral
families and observable functions, with a numerical Hermitian-matrix layer
and the Gelfand transform for diagonal algebras.

Only errors, lattice and corpus load with the package; the other names
resolve on each use (PEP 562), so a CLI call imports only the layers it runs
and a patched submodule attribute shows through.  ``corpus`` stays eager: a
later first import of the submodule would rebind the function to the module.
"""

from .errors import LatticeError, NotObservableError, SchemaError
from .lattice import (
    FiniteOML,
    StructureReport,
    generated_sublattice,
    inspect_order,
    principal_ideal,
    verify_structure,
)
from .corpus import benzene, boolean_lattice, chain2, corpus, mo

_LAZY = {  # name -> the submodule that defines it; each submodule under itself
    name: module
    for module, names in (
        ("stone", "stone DualIdeal Quasipoint enumerate_dual_ideals ideals_containing "
                  "principal_filter quasipoints quasipoints_containing stone_density"),
        ("spectral", "spectral ObservableTable PreSpectralFamily SpectralFamily mirrored_fn "
                     "make_pre_spectral_family make_spectral_family negate observable_fn "
                     "restrict spectralize translate"),
        ("recon", "recon f_from_r is_abstract_observable is_completely_increasing "
                  "observable_from_quasipoint_data r_from_f reconstruct"),
        ("matrix", "matrix EigenDecomposition ProjectorFamily eig expectation mirrored_ray "
                   "ray_obs reconstruct_from_rays spectral_family_of spectrum step_approx"),
        ("gelfand", "gelfand DiagonalAlgebra gelfand_transform orthogonal_representation"),
    )
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ (the import statement's path) so that -X importtime lists it;
    # a non-empty fromlist makes it return the submodule, not the package
    module = __import__(f"{__name__}.{_LAZY[name]}", fromlist=["*"])
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
