"""Set-up probe: import transduct and load a task directory into a
validated TaskSpec with the public readers and types, then exit.

Usage: python3 perfbench/load_probe.py TASK_DIR

The benchmark times this process from spawn to exit as ``setup_s``: the
cost every CLI invocation pays before it starts solving.
"""

import os
import sys

from transduct import fileio
from transduct.types import SupportSet, TaskSpec, validate_task


def load(task_dir: str) -> TaskSpec:
    path = lambda name: os.path.join(task_dir, name)  # noqa: E731
    support = None
    if os.path.exists(path("support.emb")):
        support = SupportSet(
            fileio.read_embeddings(path("support.emb")), fileio.read_labels(path("support.labels"))
        )
        SupportSet(
            fileio.read_embeddings(path("validation.emb")),
            fileio.read_labels(path("validation.labels")),
        )
    spec = TaskSpec(
        query=fileio.read_embeddings(path("query.emb")),
        text=fileio.read_embeddings(path("text.emb")),
        support=support,
    )
    return validate_task(spec)


if __name__ == "__main__":
    load(sys.argv[1])
