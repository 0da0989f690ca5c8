import inspect
import re
from pathlib import Path

from statbundle.cli import build_parser
from statbundle.expfam import natural_gradient_flow
from statbundle.verify import run_verification

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_at_a_glance_runs():
    # the README's API tour must only use names the library still has
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library at a glance")
    block = re.compile(r"```python\n(.*?)```", re.DOTALL).search(text, start)
    # pad with blank lines so a traceback points at the README's own line
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(source, str(README), "exec"), {})


def test_synopsis_brackets_the_library_defaults():
    # Every bracketed value in the command-line synopsis, read by the
    # command's own parser, is the default of the library function the
    # command calls; --theta0 is an example, as the start defaults to zeros.
    text = README.read_text(encoding="utf-8")
    start = text.index("## Command line")
    block = re.compile(r"```bash\n(.*?)```", re.DOTALL).search(text, start)
    commands = {
        "verify": (run_verification, []),
        "flow": (natural_gradient_flow,
                 ["--family", "f", "--target", "t", "--out", "o"]),
    }
    checked = {}
    for line in block.group(1).replace("\\\n", " ").splitlines():
        command = line.split()[1]
        if command not in commands:
            continue
        function, required = commands[command]
        pairs = [pair.split() for pair in re.findall(r"\[(--\w+ [^\]]+)\]", line)]
        argv = [command, *required,
                *(word for pair in pairs if pair[0] != "--theta0" for word in pair)]
        options = vars(build_parser().parse_args(argv))
        defaults = inspect.signature(function).parameters
        shown = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in options.items()
            if name in defaults and name != "family"
        }
        assert shown == {name: defaults[name].default for name in shown}
        checked[command] = sorted(shown)
    assert checked == {"verify": ["seed", "sizes", "slack", "trials"],
                       "flow": ["iters", "mode", "step", "tol"]}
