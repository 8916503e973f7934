"""repro: reproduction of "Adaptive on-line software aging prediction based on Machine Learning".

The package reproduces Alonso, Torres, Berral & Gavaldà (DSN 2010).  It is
organised in layers, from the bottom substrate to the paper's headline
contribution and the systems built around it:

``repro.ml``
    From-scratch machine learning: M5P model trees, linear regression,
    regression trees and the naive Equation (1) predictor.
``repro.testbed``
    A deterministic discrete-time simulation of the paper's three-tier
    TPC-W / Tomcat / MySQL testbed, including a generational JVM heap, the
    OS-level memory view, and the memory-leak / thread-leak fault injectors.
``repro.core``
    The prediction framework: Table 2 derived variables (sliding-window
    consumption speeds), time-to-failure datasets, the ``AgingPredictor``,
    the MAE / S-MAE / PRE-MAE / POST-MAE evaluation, feature selection,
    root-cause analysis and the online adaptive loop.
``repro.experiments``
    Drivers that regenerate every experiment of Section 4 (4.1–4.4) and the
    data series behind Figures 1–5.
``repro.cluster``
    An extension: a load-balanced fleet of testbed nodes under no,
    time-based or prediction-driven rolling rejuvenation, settled by the
    exact event engine or the numpy fluid tier.
``repro.api``
    The unified experiment API: a registry of declarative
    :class:`~repro.api.ExperimentSpec`\\ s, the single ``run(name, **params)``
    entry point, the serializable :class:`~repro.api.RunResult` envelope and
    the ``repro`` command-line interface (``python -m repro``).
``repro.service``
    ``repro serve``: a live fleet session over HTTP, with mutations and a
    byte-identical replay.
"""

from __future__ import annotations

import re
from pathlib import Path

try:  # tomllib is standard only since Python 3.11; 3.10 uses the regex path
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised on Python 3.10
    tomllib = None  # type: ignore[assignment]


def _load_version() -> str:
    """Resolve ``__version__`` from its single source, ``pyproject.toml``.

    A development checkout (``PYTHONPATH=src``) reads the file directly so
    edits to ``pyproject.toml`` are always authoritative; an installed wheel
    has no ``pyproject.toml`` next to the package, so the distribution
    metadata is consulted instead.
    """
    pyproject = Path(__file__).resolve().parent.parent.parent / "pyproject.toml"
    if pyproject.is_file():
        if tomllib is not None:
            with pyproject.open("rb") as handle:
                loaded = tomllib.load(handle)
            version = loaded.get("project", {}).get("version")
            if isinstance(version, str):
                return version
        else:
            match = re.search(
                r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), flags=re.MULTILINE
            )
            if match:
                return match.group(1)
    try:
        from importlib.metadata import PackageNotFoundError, version as dist_version

        return dist_version("repro-aging-prediction")
    except PackageNotFoundError:  # pragma: no cover - no checkout, no install
        return "0.0.0+unknown"


__version__ = _load_version()

__all__ = ["__version__"]
