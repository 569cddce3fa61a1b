"""Build script: compiles the shooting kernel, a plain C extension.

The package works without the extension (a pure-Python kernel is selected at
import time), so a missing or failing C compiler only costs speed.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "qlgs._shoot_c",
            ["src/qlgs/_shoot_c.c"],
            # No fused multiply-adds, so trajectories stay bit-identical to
            # the pure-Python twin on FMA-capable targets.
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
