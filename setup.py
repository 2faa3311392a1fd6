"""Build script: compiles the optional C training kernel at install time.

The kernel is a plain shared library that ``som_atlas.kernels`` loads through
``ctypes``; it needs no Python headers and no code generator. At import the
package binds this installed library first. Without one, it compiles
``_kernel.c`` itself with the same flags (``kernels.COMPILE_FLAGS``; a test
keeps the two lists equal) into ``$XDG_CACHE_HOME/som-atlas``, once per
source and compiler, and falls back to the bit-identical numpy reference
when that fails too. So a failed compile here must not fail the install.
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
