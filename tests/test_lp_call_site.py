"""Every LP of the package goes through one routine.

``simplex._optimum`` writes each program as its m-row dual, hands it to
``simplex_min`` and certifies the answer. Any other use of ``simplex_min``
in ``src/omniscio`` would be a hand-built dual form with a certificate of
its own, so the package may name it in exactly one place: the callee of
one call inside ``_optimum``.

The optimality proof is written once too, in ``simplex._unproven``: it is
called on the simplex's answer in ``_optimum`` and on the caller's solution
in ``uniqueness_test``, and nowhere else.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omniscio"


class Uses(ast.NodeVisitor):
    """(module, enclosing function, called?) for every read of ``name``,
    bare or as an attribute; the ``import`` that binds it is not a read."""

    def __init__(self, module, name):
        self.module, self.name = module, name
        self.scope = ["<module>"]
        self.callees = set()
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        self.callees.add(id(node.func))
        self.generic_visit(node)

    def visit_Name(self, node):
        if node.id == self.name and isinstance(node.ctx, ast.Load):
            self.record(node)

    def visit_Attribute(self, node):
        if node.attr == self.name and isinstance(node.ctx, ast.Load):
            self.record(node)
        self.generic_visit(node)

    def record(self, node):
        self.found.append((self.module, self.scope[-1], id(node) in self.callees))


def uses(name):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = Uses(path.name, name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return found


def test_simplex_min_has_one_call_site():
    assert uses("simplex_min") == [("simplex.py", "_optimum", True)]



def test_the_optimality_proof_has_two_call_sites():
    assert uses("_unproven") == [
        ("simplex.py", "_optimum", True),
        ("simplex.py", "uniqueness_test", True),
    ]
