"""entpipe: numerical models for a spin-register entanglement pipeline.

Subpackages cover the GHZ preparation schedule on exchange-coupled quantum
dots, bosonic cat-code storage with parity tracking, photon frequency
conversion through a scattering interface, and dual-rail to polarization
conversion, plus a CLI that chains them end to end.  The CLI module
(``entpipe.cli``) is left out of the imports below, so that
``python -m entpipe.cli`` first loads it as ``__main__``.
"""
from . import (
    cat_code,
    config,
    errors,
    hilbert,
    photon_swap,
    polarization,
    runner,
    spin_register,
)

__all__ = [
    "cat_code",
    "config",
    "errors",
    "hilbert",
    "photon_swap",
    "polarization",
    "runner",
    "spin_register",
]
__version__ = "0.1.0"
