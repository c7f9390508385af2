"""The "Options audit" table of ``docs/serving.md`` lists every serving option.

Its first column must name exactly the fields of ``EngineConfig``,
``PoolConfig`` and ``SchedulerConfig`` plus the options of
``ClusterFrontend.__init__``: a knob added without a row fails here, and so
does a row left behind for a deleted knob.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

from repro.serve import ClusterFrontend, EngineConfig, PoolConfig, SchedulerConfig

SERVING_DOC = Path(__file__).resolve().parents[1] / "docs" / "serving.md"


def audited_options() -> list[str]:
    """The first backticked name in each row of the audit table."""
    section = SERVING_DOC.read_text().split("\n## Options audit\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        cells = line.split("|")
        if not line.startswith("|") or len(cells) < 3:
            continue
        match = re.match(r"\s*`([A-Za-z_]+)`", cells[1])
        if match:
            names.append(match.group(1))
    return names


def serving_options() -> set[str]:
    fields = {
        spec.name
        for config in (EngineConfig, PoolConfig, SchedulerConfig)
        for spec in dataclasses.fields(config)
    }
    frontend = {
        name
        for name, parameter in inspect.signature(ClusterFrontend.__init__).parameters.items()
        if name not in ("self", "model")
        and parameter.kind is not inspect.Parameter.VAR_KEYWORD
    }
    return fields | frontend


def test_audit_table_lists_every_option_once():
    names = audited_options()
    assert len(names) == len(set(names)), sorted(names)
    assert set(names) == serving_options()

