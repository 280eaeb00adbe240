"""The signature-rule kernel module under its stable name `kernels`.

No affsat module imports this one: crystal and fock import _kernels_py
directly.  It is kept for backend_name() and for the benchmark's tracer,
which wraps _backend.kernels, the same module object."""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Which kernel implementation is active; always "python"."""
    return kernels.IMPL
