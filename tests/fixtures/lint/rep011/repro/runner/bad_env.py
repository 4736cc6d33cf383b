"""REP011 positives: every way of reaching the process environment."""

import os
import os as operating_system
from os import environ, getenv as read_env


def workers():
    return int(os.environ.get("WORKERS", "1"))


def registry():
    return os.getenv("REGISTRY")


def export(directory):
    operating_system.putenv("PROGRESS_DIR", directory)
    os.unsetenv("PROGRESS_DIR")


def seed():
    return environ.get("SEED") or read_env("SEED")
