"""The README's library example runs as written."""

import re
from pathlib import Path

from synth import planted_dataset, write_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(tmp_path, monkeypatch):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    # the example keeps the top 20 features of data.csv, outcome column y
    ds, _, _ = planted_dataset(0, n=300, n_noise=17)
    assert ds.n_features == 20
    write_csv(tmp_path / "data.csv", ds)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(example, namespace)
    assert namespace["report"].result is namespace["result"]
    assert 1 / 101 <= namespace["p"] <= 1
