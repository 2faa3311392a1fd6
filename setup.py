"""Build script: compiles the optional C training kernel.

The kernel is a plain shared library that ``som_atlas.kernels`` loads through
``ctypes``; it needs no Python headers and no code generator. The package
works without it (the numpy reference is selected at import time), so a
failed compile must not fail the install.
"""

from setuptools import Extension, setup

kernel = Extension(
    "som_atlas.kernels._kernel",
    sources=["src/som_atlas/kernels/_kernel.c"],
    # -ffp-contract=off: the numpy reference must stay bit-identical, so
    # fused multiply-adds are forbidden in the hot loop.
    extra_compile_args=["-O3", "-ffp-contract=off"],
    libraries=["m"],
    optional=True,
)

setup(ext_modules=[kernel])
