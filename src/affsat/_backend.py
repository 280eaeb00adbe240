"""The signature-rule kernel module under its stable name `kernels`."""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Which kernel implementation is active; always "python"."""
    return kernels.IMPL
