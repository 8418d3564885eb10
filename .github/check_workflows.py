"""Fail on GitHub workflow files that YAML would load lossily.

Loads every ``.github/workflows/*.yml`` with a PyYAML loader that raises
on a duplicate mapping key.  Lenient YAML keeps the last of two equal
keys, so a step with two ``run:`` keys silently drops its first command.

    python .github/check_workflows.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import yaml

WORKFLOWS = Path(__file__).resolve().parent / "workflows"


class UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping with the same key twice."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"found duplicate key {key!r}",
                    key_node.start_mark,
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def main() -> int:
    paths = sorted(WORKFLOWS.glob("*.yml"))
    failures = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as stream:
                yaml.load(stream, Loader=UniqueKeyLoader)
        except yaml.YAMLError as error:
            failures += 1
            print(f"{path.name}: {error}", file=sys.stderr)
    print(f"checked {len(paths)} workflow files, {failures} invalid")
    return 1 if failures or not paths else 0


if __name__ == "__main__":
    sys.exit(main())
