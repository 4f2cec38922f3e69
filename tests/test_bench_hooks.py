"""The names the bench and the stage script wrap still exist in the package.

Both tools skip a name they cannot find instead of failing, so a renamed
function would silently drop its metrics; these tests fail instead.
"""

import importlib.util
from pathlib import Path

from s3census import census, cli, enumeration

ROOT = Path(__file__).resolve().parent.parent


def _load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location("hooks_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists_on_an_owner():
    owners = {"cli": cli, "census": census}
    targets = _load("perfbench/spans.py").TARGETS
    assert targets
    for attr, (modules, _, _) in targets.items():
        assert any(hasattr(owners[m], attr) for m in modules), attr


def test_every_stage_function_exists_in_enumeration():
    stages = _load("scripts/stage_seconds.py").STAGES
    assert stages
    for stage, names in stages.items():
        for name in names:
            assert hasattr(enumeration, name), (stage, name)
