"""Build hook: compile the kernel extension from its one C source.

The extension is optional: where no C compiler works, the build warns
and the package runs on the pure-Python kernel.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qlsmodcat._kernel._speedups",
                             ["src/qlsmodcat/_kernel/_speedups.c"],
                             optional=True)])
