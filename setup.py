"""Installation script for the ``repro`` package (``src/repro``).

All project metadata lives here.  There is deliberately no
``pyproject.toml``: a PEP 517 build needs the ``wheel`` package, which
offline environments often lack, while ``python setup.py build_py`` and
``pip install --no-deps .`` (or ``pip install -e . --no-use-pep517``) work
with setuptools alone.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(encoding="utf-8"), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "CAFQA: a classical simulation bootstrap for variational quantum algorithms"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
