"""The frozen seed copy of ampwatch, ``bench/seed_src/ampwatch``, as an
independent oracle for the tests.

It is loaded once under an alias package name, next to the ampwatch under
test, so nothing under ``bench/`` and nothing on ``sys.path`` changes.
Its enums are its own classes: compare its members with ours by value.
"""

import importlib.util
import sys
from pathlib import Path

SEED_PACKAGE = Path(__file__).resolve().parents[1] / "bench" / "seed_src" / "ampwatch"


def _load_seed(alias="ampwatch_seed"):
    spec = importlib.util.spec_from_file_location(
        alias, SEED_PACKAGE / "__init__.py", submodule_search_locations=[str(SEED_PACKAGE)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return package


seed = _load_seed()
