"""REP011 negatives: os use that never touches the environment."""

import os
import subprocess


class Settings:
    environ = {}


def sink_path(directory, stem):
    return os.path.join(directory, stem + ".jsonl")


def describe():
    # Strings and look-alike attributes are not environment reads.
    return "set os.environ to configure", Settings.environ.get("x")


def run_child(env):
    return subprocess.run(["true"], env=env)
