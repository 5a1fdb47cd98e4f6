import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    # the sketch documents the public API; a cut that deletes a name it uses fails here
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["outcome"].correct and namespace["certain"].correct
