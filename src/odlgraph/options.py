"""The choices and defaults the command line offers, defined once.

The library modules that use these names re-export them (``dot_export.Overlay``,
``notes.NoteAccess``, ``clusters.DEFAULT_MIN_COOCCURRENCE``,
``sessions.DEFAULT_SESSION_TIMEOUT``).  They live here so that building the
command-line parser imports none of those modules.
"""

from __future__ import annotations

from enum import Enum

DEFAULT_MIN_COOCCURRENCE = 2  # a single co-visit is noise
DEFAULT_SESSION_TIMEOUT = 1800  # seconds; the usual half-hour inactivity cut


class Overlay(str, Enum):
    NONE = "none"
    VISIT_ORDER = "visit_order"
    COVERAGE = "coverage"
    CLUSTERS = "clusters"


class NoteAccess(str, Enum):
    PRIVATE = "private"
    TUTORS = "tutors"
    ALL = "all"
