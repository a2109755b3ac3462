"""The public surface: every public name in ``src/tacsim`` is reached by the
package itself, or is a kept entry point or test oracle."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tacsim"

# public names nothing in the package refers to, kept on purpose
KEPT = {
    "sensor.FACE_CENTER_MM": "the face centre, where the sensor tests press by default",
    "sensor.sample_fa1": "oracle: the per-layer taxel sampler that sample_block must match",
    "sensor.sample_sa2": "oracle: the per-layer flux sampler that sample_block must match",
    "sensor.TactileSensor.sample": "oracle: one frame at a time, for the per-frame closed loop",
    "sensor.apply_hysteresis": "acceptance criterion 10's play operator",
    "pipeline.StreamProcessor": "oracle: the frame-by-frame front end that FrontEnd must match",
    "pipeline.StreamProcessor.process": "oracle: StreamProcessor's one entry point",
    "pipeline.decode_frames": "reads the binary stream log back",
    "pipeline.read_frames_csv": "reads the CSV stream log back",
    "estimation.load_calibration": "reads calibration.txt back",
    "rotations.axis_angle": "acceptance criterion 05 builds its poses with it",
    "disturbance.SnrReport.table": "acceptance criterion 07 reads the sweep per marker",
    "disturbance.SnrReport.argmax_ids": "acceptance criterion 07 reads the winning marker",
}


def _is_property(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _public_definitions(trees):
    """``(qualified name, node)`` for each public module-level function, class,
    constant and public method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield f"{module}.{name}", node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def _references(tree, name, method: bool, outside):
    """Whether ``tree`` uses ``name`` outside the nodes in ``outside``.

    A module-level name is used by any load of it, bare or as an attribute.
    A method is used only when it is called (a field or another class's
    attribute may share its name); a property by any attribute load.
    """
    for node in ast.walk(tree):
        if id(node) in outside:
            continue
        if method:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name:
                return True
        elif isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        elif isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load):
            return True
    return False


def test_every_public_name_is_used_or_kept_on_purpose():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for qualname, node in _public_definitions(trees):
        method = qualname.count(".") == 2 and not _is_property(node)
        own = {id(n) for n in ast.walk(node)}
        name = qualname.rsplit(".", 1)[1]
        if not any(_references(tree, name, method, own) for tree in trees.values()):
            unused.append(qualname)
    assert sorted(set(unused) - set(KEPT)) == [], "public but unused: add a caller, delete it, or keep it with a reason"
    assert sorted(set(KEPT) - set(unused)) == [], "kept, but now used inside the package: drop it from KEPT"
