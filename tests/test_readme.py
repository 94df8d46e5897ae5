"""The README's Python examples run as written."""

import pathlib
import re
import warnings

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 3
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"),
                 namespace)
    assert capsys.readouterr().err == ""
