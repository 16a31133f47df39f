"""Exception taxonomy shared across the pipeline.

Exit-code mapping (see cli): validation failure -> 1, configuration
failure -> 2, I/O failure -> 3, any other exception -> 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

ISSUE_MALFORMED_ROW = "malformed_row"
ISSUE_DUPLICATE_KEY = "duplicate_key"
ISSUE_DANGLING_REFERENCE = "dangling_reference"
ISSUE_EMPTY_CATEGORIES = "empty_categories"
ISSUE_CONSTRAINT = "constraint_violation"


class ConfigurationError(Exception):
    """Bad configuration: unknown rank, invalid percentile, broken config file."""


class InputIOError(Exception):
    """Missing or unreadable input file, unwritable output directory."""


@dataclass(frozen=True)
class ValidationIssue:
    """One validation finding, tagged with its kind and source location."""

    kind: str
    message: str
    file: Optional[str] = None
    line: Optional[int] = None
    key: Optional[str] = None

    def format(self) -> str:
        loc = ""
        if self.file is not None:
            loc = f" [{self.file}" + (f":{self.line}]" if self.line is not None else "]")
        return f"{self.kind}: {self.message}{loc}"


class CorpusValidationError(Exception):
    """Aggregate of every issue found before giving up on the corpus."""

    def __init__(self, issues: list[ValidationIssue]):
        self.issues = issues
        lines = "\n".join(issue.format() for issue in issues)
        super().__init__(f"{len(issues)} validation error(s):\n{lines}")
