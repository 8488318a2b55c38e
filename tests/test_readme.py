"""The README's Python quick start runs and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_the_drop_height(capsys):
    """The one fenced ``python`` block: knowing T = 1 s puts the L mode at
    g/2 = 4.905 m, within the 0.5% of acceptance criterion 6."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mode = float(capsys.readouterr().out)
    assert abs(mode / 4.905 - 1.0) < 5e-3
