"""The CI workflow names some tests by node id: each must still resolve."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_node_ids_resolve():
    # by module and attribute lookup, as pytest would collect them
    nodes = re.findall(r"\btests/\w+\.py(?:::\w+)*", WORKFLOW.read_text())
    assert any("::" in node for node in nodes)
    for node in nodes:
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        obj = importlib.import_module(Path(path).stem)
        for name in names:
            obj = getattr(obj, name, None)
            assert callable(obj), node
