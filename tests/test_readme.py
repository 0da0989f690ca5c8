import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_at_a_glance_runs():
    # the README's API tour must only use names the library still has
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library at a glance")
    block = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, start)
    # pad with blank lines so a traceback points at the README's own line
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})
