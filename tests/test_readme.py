import re
from pathlib import Path

from transduct.synth import generate_task

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run():
    # the python blocks of the README run in one namespace, on the seed-7
    # few-shot task the CLI's `synth --seed 7 --shots 4 --validation-per-class 4` writes
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    task = generate_task(n_classes=10, dim=32, n_query_per_class=200, shots_per_class=4,
                         seed=7, n_validation_per_class=4)
    spec = task.spec
    namespace = {
        "queries": spec.query.data,
        "prototypes": spec.text.data,
        "shots": spec.support.embeddings.data,
        "shot_labels": spec.support.labels,
        "held_out": task.validation.embeddings.data,
        "held_out_labels": task.validation.labels,
    }
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["gamma"] in dict(namespace["table"])
    assert namespace["other"].n_rows == spec.query.n_rows
