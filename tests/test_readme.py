"""The README's Python examples run, in order, against the library as it is."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) >= 4
    # The examples read "data.csv": a header line, then an n x p sample with one edge.
    data = np.random.default_rng(0).normal(size=(200, 6))
    data[:, 1] += data[:, 0]
    np.savetxt(tmp_path / "data.csv", data, delimiter=",", comments="",
               header=",".join(f"v{c}" for c in range(6)))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert 0 in namespace["result"].rejected
