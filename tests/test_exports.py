import ast

import synclat


def test_all_lists_exactly_the_imported_names():
    with open(synclat.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(set(synclat.__all__)) == len(synclat.__all__)
    assert sorted(synclat.__all__) == sorted(imported)
