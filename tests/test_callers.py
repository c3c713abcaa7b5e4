"""Every public top-level function and class in ``src/divcontrol`` is
referenced somewhere in the package outside its own definition, or is an
entry point that code outside the package calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "divcontrol"

# called by the benchmark, by CI and by the planned command line
# (``run_op_suite`` and ``run_e2e_gradcheck`` by its ``gradcheck`` command);
# take a name off this list once code in the package calls it
ENTRY_POINTS = {"build_adapt_bundle", "tape_size", "run_e2e_gradcheck",
                "run_op_suite", "run_ablation", "sweep_repa", "zero_shot_route",
                "similarity_matrix"}


def test_public_definitions_have_a_caller():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    defs = [node for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    assert ENTRY_POINTS <= {d.name for d in defs}
    uncalled = []
    for d in defs:
        inside = {id(n) for n in ast.walk(d)}
        used = any(id(n) not in inside and d.name in (getattr(n, "id", None),
                                                     getattr(n, "attr", None))
                   for tree in trees for n in ast.walk(tree))
        if not used and d.name not in ENTRY_POINTS:
            uncalled.append(d.name)
    assert uncalled == []
