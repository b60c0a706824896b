import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    # documented usage must keep working: every fenced python block runs as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for i, code in enumerate(blocks):
        exec(compile(code, f"{README.name} python block {i}", "exec"), {"__name__": "readme"})
