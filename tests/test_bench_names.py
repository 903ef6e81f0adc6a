"""The names the traced benchmark wraps must stay where it looks for them.

``perfbench/layers.py`` times each layer by replacing module attributes
(``network.combine``, ``metrics.degree_counts``, ``crawler.Fetcher.fetch``
and so on) with wrappers. Deleting or moving one of those names breaks
every traced run; this test makes that a local failure.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import layers
from helixmap import crawler, harvest, metrics, network, registry, urls
layers.install(layers.Tracer(), urls, registry, harvest, network, metrics, crawler)
"""


def test_traced_benchmark_installs_on_every_wrapped_name():
    # a subprocess, so that the wrapped modules do not leak into other tests
    code = INSTALL.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, encoding="utf-8")
    assert done.returncode == 0, done.stderr
