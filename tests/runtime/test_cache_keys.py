"""Cached results are keyed on all the code that could have produced them.

Each disk-cached entry point fingerprints a list of ``repro`` packages. A
package its module imports but the list leaves out can change a result
without changing the key, and the cache then serves the stale value (an
edit to ``repro.util.rng.derive_seed`` once kept a deployment at 560 000
bps against the correct 566 400). Each entry is imported in a fresh
interpreter and every ``repro`` module it loads must fall under its list.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.analysis import calibration
from repro.net import deployment

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

ENTRIES = {
    "repro.net.deployment": deployment._FINGERPRINT_PACKAGES,
    "repro.analysis.calibration": calibration._FINGERPRINT_PACKAGES,
}


def _import_closure(module: str) -> list:
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            "name for name in sys.modules if name.startswith('repro.'))))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_fingerprint_covers_the_import_closure(entry):
    packages = ENTRIES[entry]
    closure = _import_closure(entry)
    assert entry in closure
    uncovered = [name for name in closure
                 if not any(name == p or name.startswith(p + ".") for p in packages)]
    assert uncovered == []
