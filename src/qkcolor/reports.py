"""Report validation against the shipped JSON schema."""
from __future__ import annotations

import functools
import json
from importlib import resources

import jsonschema


@functools.cache
def report_schema() -> dict:
    return json.loads(resources.files("qkcolor.schemas").joinpath(
        "report.schema.json").read_text())


def validate_report(report: dict) -> dict:
    """Raises jsonschema.ValidationError on a malformed report."""
    jsonschema.validate(report, report_schema())
    return report
