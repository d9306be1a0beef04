"""The process-global environment switches are a fixed, short list.

Every ``DRBAC_*`` variable the library reads is one more configuration
the whole suite would have to run under. This test pins the set: a new
switch (or a dynamically named environment read that could hide one)
fails here until it is added on purpose.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

ALLOWED = {"DRBAC_OBS", "DRBAC_GEM", "DRBAC_NO_DISCOVERY_CACHE"}


def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _is_getenv(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "getenv"
    return isinstance(node, ast.Name) and node.id == "getenv"


def _env_keys(tree: ast.AST):
    """Yield the key expression of every environment read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if _is_getenv(func) or (isinstance(func, ast.Attribute)
                                    and _is_environ(func.value)):
                yield node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.slice
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) \
                and any(_is_environ(c) for c in node.comparators):
            yield node.left


def _scan():
    names, dynamic = set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for key in _env_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                names.add(key.value)
            else:
                dynamic.append(f"{path.relative_to(SRC)}:{key.lineno}")
    return names, dynamic


def test_drbac_env_switches_are_pinned():
    names, _dynamic = _scan()
    switches = {name for name in names if name.startswith("DRBAC_")}
    assert switches == ALLOWED


def test_no_dynamically_named_env_reads():
    _names, dynamic = _scan()
    assert dynamic == []


def test_scanner_sees_every_read_form():
    source = (
        "import os\n"
        "a = os.environ.get('DRBAC_A')\n"
        "b = os.getenv('DRBAC_B', '')\n"
        "c = os.environ['DRBAC_C']\n"
        "d = 'DRBAC_D' in os.environ\n"
        "e = os.environ.get(name)\n"
    )
    keys = list(_env_keys(ast.parse(source)))
    literal = {k.value for k in keys if isinstance(k, ast.Constant)}
    assert literal == {"DRBAC_A", "DRBAC_B", "DRBAC_C", "DRBAC_D"}
    assert len(keys) == 5
