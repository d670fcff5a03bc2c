"""Build script: compiles the optional integer-matmul extension.

The package is pure Python plus one small Cython kernel for products of
square integer matrices (``Matrix.__mul__``). If Cython or a
C compiler is unavailable the install falls back to the pure-Python kernel;
nothing else changes. Set WEYLPPAV_NO_EXT=1 to skip the extension on purpose.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Best-effort build: a failed compile must not fail the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: compiled kernel skipped ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not compile {ext.name} ({exc}); using pure-Python fallback")


ext_modules = []
if os.environ.get("WEYLPPAV_NO_EXT") != "1":
    try:
        from Cython.Build import cythonize

        ext_modules = cythonize(
            [Extension("weylppav._intmul", ["src/weylppav/_intmul.pyx"])],
            language_level=3,
        )
    except ImportError:
        print("warning: Cython not available; using pure-Python kernel")

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
