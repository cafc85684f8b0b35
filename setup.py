"""Build hook: compile the optional kernel extension if a C toolchain is available.

With Cython the extension is built from ``_speedups.pyx``; without it, from
the committed ``_speedups.c`` that Cython generated from the same source.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/qlsmodcat/_kernel/_speedups.pyx"],
        language_level=3,
    )
except ImportError:
    ext_modules = [Extension("qlsmodcat._kernel._speedups",
                             ["src/qlsmodcat/_kernel/_speedups.c"])]

setup(ext_modules=ext_modules)
