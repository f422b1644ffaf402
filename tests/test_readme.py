"""README's "Library sketch" runs as written and prints what it documents;
its config key list is the parser's."""

import pathlib
import re

from uwoclink.config import SCHEMA

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_sketch_runs_and_matches_its_figures():
    code = library_sketch()
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # a line `print(expr)  # 337.4 m` documents the value of expr
    documented = re.findall(r"^print\((.+)\)\s+# ([0-9.]+) m$", code, re.MULTILINE)
    assert documented, "the sketch documents no figure"
    for expr, figure in documented:
        value = eval(expr, namespace)
        assert f"{value:.{len(figure.partition('.')[2])}f}" == figure, expr
    assert namespace["k"] > 0


def test_config_key_list_is_the_schema():
    text = README.read_text(encoding="utf-8").split("sections and keys:", 1)[1]
    block = text.split("```\n", 1)[1].split("```", 1)[0]
    listed = []
    for line in block.splitlines():
        words = line.split()
        if words[0].startswith("["):
            listed.append((words.pop(0).strip("[]"), []))
        listed[-1][1].extend(words)
    assert listed == [(section, list(keys)) for section, keys in SCHEMA.items()]
